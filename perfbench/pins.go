package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// The pinned outcomes: each workload draws its inputs from a fixed pool
// (operation i of seed s uses pool entry (s+i) mod pool size), and the
// simulated outcome of every pool entry is recorded here, so every operation
// of every seed is checked. Regenerate with --pin after a deliberate change
// of simulated behaviour. State hashes are not pinned: a documented digest
// redefinition must not read as a wrong result.
//
//go:embed testdata/pins.json
var pinsJSON []byte

// Pool sizes: larger than any run's operation count, so a run never
// repeats an input.
const (
	sweepPool      = 512
	rsaPool        = 256
	mitigationPool = 32
)

type pinFile struct {
	// Sweep[i][point] is {success rate, mean confidence, cycles, fault
	// events} of each intensity point.
	Sweep [][][4]float64 `json:"sweep"`
	RSA   []rsaPin       `json:"rsa"`
	// Mitigation[i][row] is {base IPC, mitigated IPC, no-prefetch IPC,
	// slowdown} of each application row.
	Mitigation [][][4]float64 `json:"mitigation"`
}

type rsaPin struct {
	BitsCorrect   int    `json:"bits_correct"`
	BitsTotal     int    `json:"bits_total"`
	ObservationOK int    `json:"observation_ok"`
	Observations  int    `json:"observations"`
	Cycles        uint64 `json:"cycles"`
	Decryptions   int    `json:"decryptions"`
	Recovered     string `json:"recovered"`
}

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	if len(p.Sweep) != sweepPool || len(p.RSA) != rsaPool || len(p.Mitigation) != mitigationPool {
		return nil, fmt.Errorf("pins: pool sizes %d/%d/%d, want %d/%d/%d (regenerate with --pin)",
			len(p.Sweep), len(p.RSA), len(p.Mitigation), sweepPool, rsaPool, mitigationPool)
	}
	return &p, nil
}

// writePins recomputes every pool entry and writes the file one entry per
// line.
func writePins(path string) error {
	var p pinFile
	p.Sweep = make([][][4]float64, sweepPool)
	p.RSA = make([]rsaPin, rsaPool)
	p.Mitigation = make([][][4]float64, mitigationPool)
	var jobs []func() error
	for i := 0; i < sweepPool; i++ {
		i := i
		jobs = append(jobs, func() error {
			res, _, err := sweepCampaign(i)
			p.Sweep[i] = sweepOutcome(res)
			return err
		})
	}
	for i := 0; i < rsaPool; i++ {
		i := i
		jobs = append(jobs, func() error {
			r, _, _, err := rsaExtract(i, nil, "")
			p.RSA[i] = rsaOutcome(r)
			return err
		})
	}
	for i := 0; i < mitigationPool; i++ {
		i := i
		jobs = append(jobs, func() error {
			r, err := mitigationStudy(i)
			p.Mitigation[i] = mitigationOutcome(r)
			return err
		})
	}
	if err := onTwoWorkers(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return err
	}

	var b bytes.Buffer
	b.WriteString("{\n")
	section := func(name string, n int, entry func(i int) any, last bool) error {
		fmt.Fprintf(&b, "%q: [\n", name)
		for i := 0; i < n; i++ {
			raw, err := json.Marshal(entry(i))
			if err != nil {
				return err
			}
			b.Write(raw)
			if i < n-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		if last {
			b.WriteString("]\n")
		} else {
			b.WriteString("],\n")
		}
		return nil
	}
	if err := section("sweep", sweepPool, func(i int) any { return p.Sweep[i] }, false); err != nil {
		return err
	}
	if err := section("rsa", rsaPool, func(i int) any { return p.RSA[i] }, false); err != nil {
		return err
	}
	if err := section("mitigation", mitigationPool, func(i int) any { return p.Mitigation[i] }, true); err != nil {
		return err
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
