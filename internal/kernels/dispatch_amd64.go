package kernels

// CPU feature detection for the amd64 dispatch, per the Intel SDM procedure:
// a vector width is usable only when the CPUID feature bit is set AND the OS
// has enabled saving its register state (OSXSAVE, then the XCR0 bits). AVX2
// needs the XMM and YMM state; AVX-512 also needs the opmask, ZMM_Hi256 and
// Hi16_ZMM state, which a hypervisor can mask while still reporting AVX512F
// (EVEX code would then fault). Detection runs once at package
// initialization, before init() binds the dispatch table.

// cpuid executes CPUID with the given leaf/subleaf. Implemented in
// cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0). Only valid when CPUID
// reports OSXSAVE. Implemented in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

// CPUID and XCR0 bits read by features.
const (
	cpuidFMA     = 1 << 12 // CPUID.1:ECX
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuidAVX     = 1 << 28 // CPUID.1:ECX
	cpuidAVX2    = 1 << 5  // CPUID.7.0:EBX
	cpuidAVX512F = 1 << 16 // CPUID.7.0:EBX

	xcr0YMM = 1<<1 | 1<<2                  // XMM and YMM state
	xcr0ZMM = xcr0YMM | 1<<5 | 1<<6 | 1<<7 // plus opmask, ZMM_Hi256, Hi16_ZMM
)

var hasAVX2, hasFMA, hasAVX512 = detectAMD64()

// detectAMD64 reads CPUID and XCR0 and judges them with features. A register
// the CPU cannot report (leaf 7 beyond the maximum leaf, XCR0 without
// OSXSAVE, where XGETBV would fault) is passed as zero.
func detectAMD64() (avx2, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf >= 1 {
		_, _, ecx1, _ = cpuid(1, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return features(maxLeaf, ecx1, ebx7, xcr0)
}

// features decides which assembly sets the host can run from the maximum
// basic CPUID leaf, CPUID.1:ECX, CPUID.7.0:EBX and XCR0's low word. FMA and
// AVX-512 are only reported together with AVX2, whose bodies both sets reuse.
func features(maxLeaf, ecx1, ebx7, xcr0 uint32) (avx2, fma, avx512 bool) {
	if maxLeaf < 7 || ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 || xcr0&xcr0YMM != xcr0YMM {
		return false, false, false
	}
	avx2 = ebx7&cpuidAVX2 != 0
	fma = avx2 && ecx1&cpuidFMA != 0
	avx512 = avx2 && ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	return avx2, fma, avx512
}

// archImpl returns the best assembly implementation under the FMA policy,
// or nil to fall back to generic.
func archImpl(allowFMA bool) *impl {
	return pickImpl(hasAVX2, hasFMA, hasAVX512, allowFMA)
}

// pickImpl is archImpl's choice for given host features: FMA when allowed
// and present, else the widest bit-exact set.
func pickImpl(avx2, fma, avx512, allowFMA bool) *impl {
	switch {
	case avx2 && allowFMA && fma:
		return &fmaImpl
	case avx512:
		return &avx512Impl
	case avx2:
		return &avx2Impl
	}
	return nil
}

// archImpls lists every assembly implementation this host can run.
func archImpls() []*impl {
	var out []*impl
	if hasAVX2 {
		out = append(out, &avx2Impl)
	}
	if hasAVX512 {
		out = append(out, &avx512Impl)
	}
	if hasFMA {
		out = append(out, &fmaImpl)
	}
	return out
}
