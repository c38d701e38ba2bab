package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"twoface"
	"twoface/internal/kernels"
)

// parse builds the cli a command line would: defaults from register, then args.
func parse(t *testing.T, args ...string) cli {
	t.Helper()
	var c cli
	fs := flag.NewFlagSet("twoface-run", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// runCaptured drives run() in-process and returns what it printed.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(parse(t, args...))
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// submatchInt returns the first capture group of re in out as an integer.
func submatchInt(t *testing.T, re, out string) int {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no match for %q:\n%s", re, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// The default run verifies, batches its one-sided gets (never more requests
// than async stripes) and reports the pipelining credit.
func TestRunReportsVerifiedBatchedPipelined(t *testing.T) {
	out := runCaptured(t, "-matrix", "web", "-scale", "0.05")
	if !strings.Contains(out, "verified against the reference kernel") {
		t.Fatalf("run did not verify:\n%s", out)
	}
	asyncStripes := submatchInt(t, `classified: \d+ sync stripes, (\d+) async stripes`, out)
	gets := submatchInt(t, `one-sided in (\d+) gets`, out)
	if asyncStripes == 0 {
		t.Fatal("workload classified no async stripes; the get bound is vacuous")
	}
	if gets > asyncStripes {
		t.Fatalf("%d one-sided gets for %d async stripes", gets, asyncStripes)
	}
	if !regexp.MustCompile(`sync overlap: \S+ s hidden by pipelining`).MatchString(out) {
		t.Fatalf("no sync-overlap line:\n%s", out)
	}
}

// Every flag that reaches twoface.Options does so through cli.options, each
// moving exactly its own field; every other Options field is on the list of
// fields no flag sets, so a new field has to be placed on one side or the other.
func TestOptionsCarriesEveryFlag(t *testing.T) {
	flags := []struct {
		field string
		args  []string
		want  any
	}{
		{"Nodes", []string{"-p", "3"}, 3},
		{"DenseColumns", []string{"-K", "16"}, 16},
		{"TimingOnly", []string{"-verify=false"}, true},
		{"Workers", []string{"-sync-workers", "5"}, 5},
		{"AsyncWorkers", []string{"-async-workers", "3"}, 3},
		{"ForceGenericKernels", []string{"-force-generic"}, true},
		{"AllowFMA", []string{"-allow-fma"}, true},
		{"Recover", []string{"-recover"}, true},
		{"CheckpointInterval", []string{"-checkpoint-interval", "1e-6"}, 1e-6},
		{"TraceEvents", []string{"-trace", "-trace-cap", "99"}, 99},
	}
	notFlags := []string{
		"StripeWidth", "Net", "Coefficients", "MemBudgetElems", "RowPanelHeight",
		"MaxAsyncBatchBytes", "RowCacheElems",
		"Chaos", "SpanRecorder", "Logger", "Transport", // attached by run, not by options
	}

	base := reflect.ValueOf(parse(t).options())
	covered := map[string]bool{}
	for _, tc := range flags {
		covered[tc.field] = true
		got := reflect.ValueOf(parse(t, tc.args...).options())
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			v := got.Field(i).Interface()
			switch {
			case name == tc.field && !reflect.DeepEqual(v, tc.want):
				t.Errorf("%v: Options.%s = %v, want %v", tc.args, name, v, tc.want)
			case name != tc.field && !reflect.DeepEqual(v, base.Field(i).Interface()):
				t.Errorf("%v: moved Options.%s to %v", tc.args, name, v)
			}
		}
	}
	for _, name := range notFlags {
		if covered[name] {
			t.Errorf("Options.%s is listed both as a flag and as not a flag", name)
		}
		covered[name] = true
		if f := base.FieldByName(name); !f.IsValid() {
			t.Errorf("twoface.Options has no field %s", name)
		} else if !f.IsZero() {
			t.Errorf("cli.options sets Options.%s, which no flag carries", name)
		}
	}
	typ := reflect.TypeOf(twoface.Options{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("twoface.Options.%s is neither carried by a flag nor listed as not a flag", name)
		}
	}
}

// Two ranks pair only when their digests agree: it must differ on anything
// that changes C's bits — K, and whether fused kernels were asked for, by flag
// or by environment — and ignore what does not.
func TestWorkloadDigest(t *testing.T) {
	a := twoface.Generate("web", 0.02, 42)
	args := []string{"-matrix", "web", "-scale", "0.02", "-p", "2"}
	with := func(extra ...string) uint64 {
		return workloadDigest(parse(t, append(args, extra...)...), a)
	}
	base := with()
	if with("-sync-workers", "1", "-async-workers", "1", "-verify=false", "-rank", "1") != base {
		t.Error("digest depends on flags that do not change the workload")
	}
	if with("-K", "64") == base {
		t.Error("digest ignores K")
	}
	if kernels.FMAAllowed() {
		t.Skip("TWOFACE_ALLOW_FMA is set: every digest here already carries it")
	}
	if with("-allow-fma") == base {
		t.Error("digest ignores -allow-fma")
	}
	kernels.SetAllowFMA(true)
	viaEnv := with()
	kernels.SetAllowFMA(false)
	if viaEnv != with("-allow-fma") {
		t.Error("digest distinguishes -allow-fma from TWOFACE_ALLOW_FMA; both select the same kernels")
	}
}
