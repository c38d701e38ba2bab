package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twoface"
	"twoface/internal/kernels"
)

// parse builds the cli a command line would: defaults from register, then args.
func parse(t *testing.T, args ...string) cli {
	t.Helper()
	var c cli
	fs := flag.NewFlagSet("twoface-bench", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// options returns the library options a command line configures.
func options(t *testing.T, args ...string) twoface.Options {
	t.Helper()
	cfg, err := parse(t, args...).config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Options
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

// Every flag that reaches the options the harness runs with does so through
// cli.config, each moving exactly its own field; every other Options field is
// on the list of fields no flag sets, so a new field has to be placed on one
// side or the other.
func TestConfigCarriesEveryFlag(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(planPath, []byte(`{"seed": 3, "crashes": [{"rank": 1, "at": 1e-6}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	filePlan, err := twoface.LoadFaultPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	flags := []struct {
		field string
		args  []string
		want  any
	}{
		{"Nodes", []string{"-p", "3"}, 3},
		{"Workers", []string{"-workers", "5"}, 5},
		{"TimingOnly", []string{"-verify"}, false},
		{"Recover", []string{"-recover"}, true},
		{"CheckpointInterval", []string{"-checkpoint-interval", "1e-6"}, 1e-6},
		{"ForceGenericKernels", []string{"-force-generic"}, true},
		{"AllowFMA", []string{"-allow-fma"}, true},
		{"Chaos", []string{"-chaos-seed", "7"}, twoface.RandomFaultPlan(7, 8)},
		{"Chaos", []string{"-fault-plan", planPath}, filePlan},
	}
	notFlags := []string{
		// Set per run by the harness.
		"DenseColumns", "StripeWidth", "Net", "Coefficients", "MemBudgetElems",
		"AsyncWorkers", "RowPanelHeight", "MaxAsyncBatchBytes", "RowCacheElems",
		"TraceEvents", "SpanRecorder", "Transport",
		"Logger", // attached by run, not by config
	}

	base := reflect.ValueOf(options(t))
	covered := map[string]bool{}
	for _, tc := range flags {
		covered[tc.field] = true
		got := reflect.ValueOf(options(t, tc.args...))
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
			t.Errorf("cli.config sets Options.%s, which no flag carries", name)
		}
	}
	typ := reflect.TypeOf(twoface.Options{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("twoface.Options.%s is neither carried by a flag nor listed as not a flag", name)
		}
	}

	cfg, err := parse(t, "-scale", "0.5", "-seed", "9").config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 0.5 || cfg.Seed != 9 {
		t.Errorf("-scale 0.5 -seed 9 gave Scale %v Seed %v", cfg.Scale, cfg.Seed)
	}
	if _, err := parse(t, "-chaos-seed", "7", "-fault-plan", planPath).config(); err == nil {
		t.Error("-chaos-seed with -fault-plan must be refused")
	}
}

// A small -exp table1 run renders the whole matrix inventory.
func TestTable1Run(t *testing.T) {
	out := runCaptured(t, "-exp", "table1", "-scale", "0.02", "-json")
	var doc struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("table1 output is not one JSON table: %v\n%s", err, out)
	}
	if len(doc.Rows) != 8 {
		t.Fatalf("table1 has %d matrix rows, want 8", len(doc.Rows))
	}
	for _, r := range doc.Rows {
		if rows, ok := r["rows"].(float64); !ok || rows <= 0 {
			t.Errorf("matrix %v has no row count: %v", r["name"], r["rows"])
		}
	}
}

// The kernel toggles take effect even for -exp table3, whose calibration
// runs on core directly and never reaches the twoface.New that would
// otherwise apply them.
func TestKernelTogglesReachTable3(t *testing.T) {
	if kernels.GenericForced() || kernels.FMAAllowed() {
		t.Skip("a kernel toggle is already set from the environment")
	}
	t.Cleanup(func() {
		kernels.SetForceGeneric(false)
		kernels.SetAllowFMA(false)
	})
	runCaptured(t, "-exp", "table3", "-scale", "0.02", "-p", "4", "-force-generic", "-allow-fma")
	if !kernels.GenericForced() {
		t.Error("-force-generic did not pin the generic kernels")
	}
	if !kernels.FMAAllowed() {
		t.Error("-allow-fma did not allow the fused kernels")
	}
}
