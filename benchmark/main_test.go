package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickRun drives the whole benchmark over miniature inputs against
// a real wedserve child: all four workloads, untraced and traced, then
// the driver's single-run form, then -compare.
func TestQuickRun(t *testing.T) {
	t.Chdir("..") // the benchmark runs from the repository root
	spec, err := readBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	common := []string{"-quick", "-seconds", "0.3", "-out", outDir}

	var stdout bytes.Buffer
	if code := realMain(append([]string{"-seed", "1"}, common...), &stdout); code != 0 {
		t.Fatalf("full run exited %d:\n%s", code, stdout.String())
	}
	result := filepath.Join(outDir, "result.json")
	file, err := readResultFile(result)
	if err != nil {
		t.Fatal(err)
	}

	// Every metric BENCHMARK.json names is emitted exactly once per
	// workload, with its unit, by the run of its kind — and nothing else.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var got *runRecord
			for i := range file.Runs {
				if r := &file.Runs[i]; r.Workload == wl.Name && r.Trace == traced {
					if got != nil {
						t.Errorf("%s traced=%v: more than one run", wl.Name, traced)
					}
					got = r
				}
			}
			if got == nil {
				t.Errorf("%s traced=%v: no run", wl.Name, traced)
				continue
			}
			if !got.Correct || got.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %s", wl.Name, traced, got.Failed, got.Attempted, got.FirstErr)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(got.Metrics), len(want))
			}
			for _, ms := range want {
				m, ok := got.Metrics[ms.Name]
				switch {
				case !name.MatchString(ms.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", ms.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", wl.Name, traced, ms.Name)
				case m.Unit != ms.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, ms.Name, m.Unit, ms.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+wl.Name+".json")); err != nil {
			t.Error(err)
		}
	}
	if file.Header.Claim != nil {
		t.Errorf("the benchmark claims no gain, header says %q", *file.Header.Claim)
	}

	// The driver's form: one workload, result object on the last line.
	for _, trace := range []string{"0", "1"} {
		stdout.Reset()
		args := append([]string{"--workload", "ingest_mixed", "--seed", "1", "--trace", trace}, common...)
		if code := realMain(args, &stdout); code != 0 {
			t.Fatalf("driver run exited %d:\n%s", code, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		want := spec.EndToEnd
		if trace == "1" {
			want = spec.PerLayer
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
			t.Errorf("trace %s: result line %s", trace, lines[len(lines)-1])
		}
	}

	// A file compared with itself is all ok — or unresolved where the
	// machine running this test was itself flagged noisy.
	stdout.Reset()
	if code := compareFiles(result, result, &stdout); code != 0 {
		t.Errorf("-compare of a file with itself exited %d:\n%s", code, stdout.String())
	}
	for _, verdict := range []string{"worse", "spread", "missing", "differs"} {
		if strings.Contains(stdout.String(), verdict) {
			t.Errorf("-compare of a file with itself has a %q row:\n%s", verdict, stdout.String())
			break
		}
	}
}

// TestInputHash pins the seed contract: equal seeds give byte-identical
// inputs, different seeds different ones.
func TestInputHash(t *testing.T) {
	a, err := buildInputs(7, quickSizing())
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInputs(7, quickSizing())
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildInputs(8, quickSizing())
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash {
		t.Errorf("seed 7 hashed to %s and then %s", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 7 and 8 both hashed to %s", a.hash)
	}
}
