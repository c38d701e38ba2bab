package kernels

import "testing"

// features is the whole amd64 detection decision; these rows are the host
// configurations where getting it wrong either faults (EVEX or VEX code the
// OS does not save state for) or silently leaves a width unused.
func TestFeatures(t *testing.T) {
	const (
		ecxAll  = cpuidOSXSAVE | cpuidAVX | cpuidFMA
		ebxAll  = cpuidAVX2 | cpuidAVX512F
		xcr0All = xcr0ZMM
	)
	cases := []struct {
		name                     string
		maxLeaf, ecx1, ebx7, xcr uint32
		avx2, fma, avx512        bool
	}{
		{"everything", 0xd, ecxAll, ebxAll, xcr0All, true, true, true},
		{"no AVX-512F", 0xd, ecxAll, cpuidAVX2, xcr0All, true, true, false},
		{"AVX-512F without opmask state", 0xd, ecxAll, ebxAll, xcr0ZMM &^ (1 << 5), true, true, false},
		{"AVX-512F without ZMM_Hi256 state", 0xd, ecxAll, ebxAll, xcr0ZMM &^ (1 << 6), true, true, false},
		{"AVX-512F without Hi16_ZMM state", 0xd, ecxAll, ebxAll, xcr0YMM, true, true, false},
		{"AVX-512F without AVX2", 0xd, ecxAll, cpuidAVX512F, xcr0All, false, false, false},
		{"no OSXSAVE", 0xd, cpuidAVX | cpuidFMA, ebxAll, xcr0All, false, false, false},
		{"no AVX", 0xd, cpuidOSXSAVE | cpuidFMA, ebxAll, xcr0All, false, false, false},
		{"no YMM state", 0xd, ecxAll, ebxAll, 1 << 1, false, false, false},
		{"FMA without AVX2", 0xd, ecxAll, 0, xcr0All, false, false, false},
		{"AVX2 without FMA", 0xd, cpuidOSXSAVE | cpuidAVX, cpuidAVX2, xcr0YMM, true, false, false},
		{"max leaf 6", 6, ecxAll, ebxAll, xcr0All, false, false, false},
		{"max leaf 0", 0, 0, 0, 0, false, false, false},
	}
	for _, c := range cases {
		avx2, fma, avx512 := features(c.maxLeaf, c.ecx1, c.ebx7, c.xcr)
		if avx2 != c.avx2 || fma != c.fma || avx512 != c.avx512 {
			t.Errorf("%s: features = avx2 %v, fma %v, avx512 %v; want %v, %v, %v",
				c.name, avx2, fma, avx512, c.avx2, c.fma, c.avx512)
		}
	}
}

// The default set is the widest bit-exact one the host has: avx2 without
// AVX-512 (the AVX2 host's instruction stream is unchanged by its
// existence), avx512 with it, and the FMA set only on opt-in.
func TestPickImpl(t *testing.T) {
	cases := []struct {
		avx2, fma, avx512, allowFMA bool
		want                        *impl
	}{
		{false, false, false, false, nil},
		{false, false, false, true, nil},
		{true, false, false, false, &avx2Impl},
		{true, true, false, false, &avx2Impl},
		{true, false, false, true, &avx2Impl},
		{true, true, false, true, &fmaImpl},
		{true, true, true, false, &avx512Impl},
		{true, false, true, false, &avx512Impl},
		{true, true, true, true, &fmaImpl},
	}
	for _, c := range cases {
		if got := pickImpl(c.avx2, c.fma, c.avx512, c.allowFMA); got != c.want {
			t.Errorf("pickImpl(avx2 %v, fma %v, avx512 %v, allowFMA %v) = %v, want %v",
				c.avx2, c.fma, c.avx512, c.allowFMA, variantOf(got), variantOf(c.want))
		}
	}
}

func variantOf(t *impl) string {
	if t == nil {
		return "nil (generic)"
	}
	return t.variant.String()
}
