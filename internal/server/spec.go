package server

import (
	"encoding/json"
	"fmt"

	"afterimage"
	"afterimage/internal/store"
)

// SpecSchema versions the canonical fingerprint encoding. Bumping it
// invalidates every cached result at once — which is exactly what a change
// to campaign semantics requires. Version 2: result bodies carry per-point
// state hashes, and the state-hash definition changed. Version 3: it
// changed again (cache digests fold touched sets only). Version 4: the
// machine digest became the machine's state walk.
const SpecSchema = "afterimage-campaign/4"

// maxSpecBits bounds a single campaign's secret length so one request
// cannot monopolise a worker for hours. Larger studies run through the
// batch binaries, not the service.
const maxSpecBits = 4096

// CampaignSpec is the service's submission unit: one fault-sweep campaign.
// Identity — and therefore the cache key — is the canonical encoding of the
// simulation-relevant fields only; Tenant and TimeoutMs shape admission and
// deadlines but two tenants submitting the same campaign share one cached
// result (that is the content-addressing payoff).
type CampaignSpec struct {
	// Tenant names the submitting tenant for quota accounting and
	// per-tenant metrics ("anonymous" when empty).
	Tenant string `json:"tenant,omitempty"`
	// Attack is the swept attack: v1-thread | v1-process | v2-kernel |
	// covert.
	Attack string `json:"attack"`
	// Model is the simulated machine: coffeelake (default) | haswell.
	Model string `json:"model,omitempty"`
	// Seed drives every pseudo-random element; equal seeds reproduce
	// campaigns bit-for-bit.
	Seed int64 `json:"seed,omitempty"`
	// Bits is the secret length per sweep point (default 32).
	Bits int `json:"bits,omitempty"`
	// Intensities are the fault-injection intensities to sample (default
	// 0, 0.5, 1, 2, 4).
	Intensities []float64 `json:"intensities,omitempty"`
	// MaxCycles arms the per-point cycle-budget watchdog (0 = off). It is
	// part of campaign identity: a budget kill changes the result.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TimeoutMs is the per-request wall deadline for a fresh run (0 = the
	// server default). Wall clocks are nondeterministic, so an expired
	// deadline cancels the campaign (checkpointing progress) rather than
	// degrading points — nothing time-dependent is ever cached.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// The accepted attack and model spellings (the CLI spellings).
var specAttacks = map[string]afterimage.SweepAttack{
	"v1-thread":  afterimage.SweepV1Thread,
	"v1-process": afterimage.SweepV1Process,
	"v2-kernel":  afterimage.SweepV2Kernel,
	"covert":     afterimage.SweepCovert,
}

var specModels = map[string]afterimage.Model{
	"coffeelake": afterimage.CoffeeLake,
	"haswell":    afterimage.Haswell,
}

// Normalize fills defaults so that specs spelling a default explicitly and
// specs omitting it canonicalise — and cache — identically.
func (sp CampaignSpec) Normalize() CampaignSpec {
	if sp.Tenant == "" {
		sp.Tenant = "anonymous"
	}
	if sp.Model == "" {
		sp.Model = "coffeelake"
	}
	if sp.Bits == 0 {
		sp.Bits = 32
	}
	if len(sp.Intensities) == 0 {
		sp.Intensities = []float64{0, 0.5, 1, 2, 4}
	}
	return sp
}

// Validate rejects malformed specs with the repo's typed *OptionError, so
// the HTTP layer can report struct/field/constraint structurally. Call on a
// Normalized spec.
func (sp CampaignSpec) Validate() error {
	if _, ok := specAttacks[sp.Attack]; !ok {
		return &afterimage.OptionError{
			Struct: "CampaignSpec", Field: "Attack", Value: sp.Attack,
			Constraint: "one of v1-thread | v1-process | v2-kernel | covert",
		}
	}
	if _, ok := specModels[sp.Model]; !ok {
		return &afterimage.OptionError{
			Struct: "CampaignSpec", Field: "Model", Value: sp.Model,
			Constraint: "one of coffeelake | haswell",
		}
	}
	if sp.Bits < 0 || sp.Bits > maxSpecBits {
		return &afterimage.OptionError{
			Struct: "CampaignSpec", Field: "Bits", Value: sp.Bits,
			Constraint: fmt.Sprintf("1..%d (0 means default 32)", maxSpecBits),
		}
	}
	if sp.TimeoutMs < 0 {
		return &afterimage.OptionError{
			Struct: "CampaignSpec", Field: "TimeoutMs", Value: sp.TimeoutMs,
			Constraint: ">= 0 (0 means the server default)",
		}
	}
	if err := sp.labOptions().Validate(); err != nil {
		return err
	}
	// The sweep's own validation covers Bits and per-intensity range with
	// the same typed machinery.
	return sp.sweepOptions().Validate()
}

// canonicalSpec is the identity encoding: fixed field order, no admission
// fields, explicit schema token.
type canonicalSpec struct {
	Schema      string    `json:"schema"`
	Attack      string    `json:"attack"`
	Model       string    `json:"model"`
	Seed        int64     `json:"seed"`
	Bits        int       `json:"bits"`
	Intensities []float64 `json:"intensities"`
	MaxCycles   uint64    `json:"max_cycles"`
}

// Key is the spec's content address: the sha256 of its canonical identity
// encoding. Call on a Normalized spec — Key(Normalize(s)) is stable across
// default spellings.
func (sp CampaignSpec) Key() string {
	raw, err := json.Marshal(canonicalSpec{
		Schema:      SpecSchema,
		Attack:      sp.Attack,
		Model:       sp.Model,
		Seed:        sp.Seed,
		Bits:        sp.Bits,
		Intensities: sp.Intensities,
		MaxCycles:   sp.MaxCycles,
	})
	if err != nil {
		// Unreachable for the field types above, but a stable fallback
		// beats a panic in a request handler.
		raw = []byte(err.Error())
	}
	return store.Key(raw)
}

// labOptions derives the per-campaign lab configuration.
func (sp CampaignSpec) labOptions() afterimage.Options {
	return afterimage.Options{
		Model: specModels[sp.Model],
		Seed:  sp.Seed,
	}
}

// sweepOptions derives the sweep configuration (runner options are the
// server's, attached at execution time).
func (sp CampaignSpec) sweepOptions() afterimage.SweepOptions {
	return afterimage.SweepOptions{
		Attack:      specAttacks[sp.Attack],
		Bits:        sp.Bits,
		Intensities: sp.Intensities,
		MaxCycles:   sp.MaxCycles,
	}
}
