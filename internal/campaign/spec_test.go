package campaign

import (
	"encoding/json"
	"flag"
	"reflect"
	"testing"
)

// parseFlags binds a fresh spec to a flag set and parses args into it,
// the way cmd/experiments does.
func parseFlags(t *testing.T, args ...string) Spec {
	t.Helper()
	var s Spec
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	s.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// decodeSpec decodes a JSON submission body the way cmd/dseserve does.
func decodeSpec(t *testing.T, body string) Spec {
	t.Helper()
	var s Spec
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// everyField sets each flag BindFlags registers to a value other than
// its default; everyFieldJSON is the same campaign as a submission.
var everyField = map[string]string{
	"campaign-scenes":         "lr_kt1,of_kt1",
	"campaign-devices":        "desktop-gpu,odroid-xu3",
	"quick":                   "true",
	"seed":                    "7",
	"random":                  "9",
	"active":                  "2",
	"batch":                   "3",
	"workers":                 "3",
	"mf-stride":               "2",
	"mf-promote":              "0.5",
	"campaign-transfer":       "true",
	"campaign-transfer-seeds": "4",
	"campaign-knowledge":      "true",
}

const everyFieldJSON = `{"scenarios":["lr_kt1","of_kt1"],"devices":["desktop-gpu","odroid-xu3"],
	"quick":true,"seed":7,"random_samples":9,"active_iterations":2,"batch_per_iteration":3,
	"workers":3,"fidelity_stride":2,"promote_fraction":0.5,
	"transfer":true,"transfer_seeds":4,"knowledge":true}`

func everyFieldArgs() []string {
	var args []string
	for name, v := range everyField {
		args = append(args, "-"+name+"="+v)
	}
	return args
}

// TestSpecCLIEqualsHTTP is the CLI/served byte-identity guarantee at
// its root: flag arguments and the equivalent JSON submission normalize
// to the same campaign ID and resolve to identical options. The IDs are
// pinned: they name dseserve job directories, so they move only on
// purpose.
func TestSpecCLIEqualsHTTP(t *testing.T) {
	cases := []struct {
		name string
		args []string
		json string
		id   string
	}{
		{"defaults", nil, `{}`, "1e8912118ff2d671"},
		{"serve-smoke phase A",
			[]string{"-quick", "-campaign-scenes", "lr_kt0", "-campaign-devices", "odroid-xu3", "-random", "4", "-active", "1", "-batch", "2"},
			`{"quick":true,"scenarios":["lr_kt0"],"devices":["odroid-xu3"],"random_samples":4,"active_iterations":1,"batch_per_iteration":2}`,
			"28412a54585ab25b"},
		{"serve-smoke phase B",
			[]string{"-quick", "-campaign-scenes", "lr_kt0,of_kt0", "-campaign-devices", "odroid-xu3", "-random", "6", "-active", "1", "-batch", "2"},
			`{"quick":true,"scenarios":["lr_kt0","of_kt0"],"devices":["odroid-xu3"],"random_samples":6,"active_iterations":1,"batch_per_iteration":2}`,
			"f3b0f1c146eb59a3"},
		{"every field", everyFieldArgs(), everyFieldJSON, "43ad64c132044f56"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cli, served := parseFlags(t, c.args...), decodeSpec(t, c.json)
			cli.Normalize()
			served.Normalize()
			if cli.ID() != c.id || served.ID() != c.id {
				t.Fatalf("IDs: CLI %s, HTTP %s, want %s", cli.ID(), served.ID(), c.id)
			}
			cliOpts, err := cli.Options()
			if err != nil {
				t.Fatal(err)
			}
			servedOpts, err := served.Options()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cliOpts, servedOpts) {
				t.Fatalf("options differ:\nCLI  %+v\nHTTP %+v", cliOpts, servedOpts)
			}
		})
	}
}

// TestSpecFlagsSetEveryField: every Spec field is reachable from the
// command line, so a field added to the wire form without a flag (or a
// flag without a test value above) fails here.
func TestSpecFlagsSetEveryField(t *testing.T) {
	base := reflect.ValueOf(parseFlags(t))
	set := make(map[string]bool)
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	new(Spec).BindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		v, ok := everyField[f.Name]
		if !ok {
			t.Errorf("flag -%s has no non-default test value", f.Name)
			return
		}
		got := reflect.ValueOf(parseFlags(t, "-"+f.Name+"="+v))
		for i := 0; i < got.NumField(); i++ {
			if !reflect.DeepEqual(got.Field(i).Interface(), base.Field(i).Interface()) {
				set[base.Type().Field(i).Name] = true
			}
		}
	})
	for i := 0; i < base.NumField(); i++ {
		if name := base.Type().Field(i).Name; !set[name] {
			t.Errorf("no flag sets Spec.%s", name)
		}
	}
}

func TestSpecNormalizeFillsDefaults(t *testing.T) {
	var s Spec
	s.Normalize()
	if len(s.Scenarios) != 6 {
		t.Fatalf("default scenarios: %v", s.Scenarios)
	}
	if len(s.Devices) != 2 || s.Devices[0] != "odroid-xu3" || s.Devices[1] != "pixel-adreno530" {
		t.Fatalf("default devices: %v", s.Devices)
	}
	if s.Seed != 1 || s.RandomSamples != 20 || s.ActiveIterations != 5 || s.BatchPerIteration != 4 {
		t.Fatalf("default budget: %+v", s)
	}
	if s.PromoteFraction != 0.25 {
		t.Fatalf("default promote fraction: %+v", s)
	}
	// Normalization is idempotent: canonical specs stay canonical.
	id := s.ID()
	s.Normalize()
	if s.ID() != id {
		t.Fatal("normalization is not idempotent")
	}
	// The flags default to the normalized values (an empty
	// -campaign-scenes stands for all six scenarios).
	cli := parseFlags(t)
	cli.Scenarios = s.Scenarios
	if !reflect.DeepEqual(cli, s) {
		t.Fatalf("flag defaults %+v differ from normalized defaults %+v", cli, s)
	}
}

// TestSpecRejectsNegative: zero means the default and a negative value
// is an error on both front-ends; no value encodes "a true zero".
func TestSpecRejectsNegative(t *testing.T) {
	cases := []struct {
		json string
		args []string
	}{
		{`{"active_iterations":-1}`, []string{"-active", "-1"}},
		{`{"promote_fraction":-1}`, []string{"-mf-promote", "-1"}},
		{`{"transfer_seeds":-1,"transfer":true}`, []string{"-campaign-transfer-seeds", "-1", "-campaign-transfer"}},
	}
	for _, c := range cases {
		for _, s := range []Spec{decodeSpec(t, c.json), parseFlags(t, c.args...)} {
			s.Normalize()
			if _, err := s.Options(); err == nil {
				t.Errorf("negative spec accepted: %+v", s)
			}
		}
	}
}

func TestSpecIDExcludesWorkers(t *testing.T) {
	a := Spec{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"}, Workers: 1}
	b := Spec{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"}, Workers: 8}
	a.Normalize()
	b.Normalize()
	if a.ID() != b.ID() {
		t.Fatal("worker count changed job identity")
	}
	c := a
	c.Seed = 2
	if c.ID() == a.ID() {
		t.Fatal("seed change did not change job identity")
	}
	// Equivalent submissions — explicit defaults vs omitted fields —
	// normalize to the same identity.
	d := Spec{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"},
		Seed: 1, RandomSamples: 20, ActiveIterations: 5, BatchPerIteration: 4,
		PromoteFraction: 0.25}
	d.Normalize()
	if d.ID() != a.ID() {
		t.Fatal("explicit defaults produced a different identity than omitted fields")
	}
}

func TestSpecOptionsValidation(t *testing.T) {
	good := Spec{Quick: true, Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"}}
	good.Normalize()
	opts, err := good.Options()
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if opts.AccuracyLimit != 0.08 {
		t.Fatalf("quick spec accuracy limit %g, want 0.08", opts.AccuracyLimit)
	}
	if len(opts.Scenarios) != 1 || len(opts.Targets) != 1 {
		t.Fatalf("resolved grid %dx%d", len(opts.Scenarios), len(opts.Targets))
	}

	bad := []Spec{
		{Scenarios: []string{"lr_kt9"}},                                                // unknown scenario
		{Devices: []string{"nokia-3310"}},                                              // unknown device
		{Scenarios: []string{"lr_kt0", "lr_kt0"}},                                      // duplicate scenario
		{PromoteFraction: 1.5},                                                         // fraction out of range
		{TransferSeeds: 2, Transfer: true},                                             // below surrogate minimum
		{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3", "odroid-xu3"}}, // duplicate device
		{Workers: -1}, // negative worker count
	}
	for i, s := range bad {
		s.Normalize()
		if _, err := s.Options(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
}
