package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afterimage/internal/telemetry"
)

// TestMain lets the set-up probe re-execute the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at minimal size, end to end and as a
// ledger, and checks that every metric BENCHMARK.json declares is printed
// with its unit, that no operation failed, and that the trace validates.
// It covers the workloads BENCHMARK.json does not gate on too.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	work := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			checkRun(t, bench.EndToEnd, "--workload", w.name, "--seed", "1", "--seconds", "0.05", "--trace", "0", "--work", work)
		})
	}
	t.Run("ledger", func(t *testing.T) {
		checkRun(t, bench.PerLayer, "--workload", "sweep", "--seed", "1", "--seconds", "0.2", "--trace", "1", "--work", work)
		f, err := os.ReadFile(filepath.Join(work, "perfbench-trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.ValidateChromeTrace(bytes.NewReader(f)); err != nil {
			t.Fatal(err)
		}
	})
}

func checkRun(t *testing.T, want []declared, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not printed", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}
