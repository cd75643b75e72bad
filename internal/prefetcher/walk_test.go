package prefetcher

import (
	"testing"

	"afterimage/internal/walktest"
)

// ipstrideAttached lists the IP-stride table's geometry and attachments,
// under prefix.
func ipstrideAttached(prefix string) walktest.Attached {
	const pgeom = "replacement-engine geometry, fixed at construction"
	const masks = "Tree-PLRU touch masks, fixed at construction"
	return walktest.Attached{
		prefix + "cfg":         "configuration, fixed at construction",
		prefix + "mask":        "index mask, derived from the configuration",
		prefix + "tel":         "telemetry hub: a per-machine attachment, re-pointed by SetTelemetry",
		prefix + "policy.kind": pgeom, prefix + "policy.ways": pgeom, prefix + "policy.tnodes": pgeom,
		prefix + "policy.tsetM": masks, prefix + "policy.tclrM": masks,
	}
}

// TestSuiteWalkCoverage: every Suite field — the IP-stride table's and the
// noise prefetchers' included — is either walked (so forked and hashed) or
// on the attachment/geometry list.
func TestSuiteWalkCoverage(t *testing.T) {
	s := forkTestSuite()
	warmSuite(s, 500)
	attached := ipstrideAttached("IPStride.")
	attached["scratch"] = "request scratch: Fork empties it, it holds nothing between loads"
	walktest.Check(t, s, (*Suite).Fork, (*Suite).StateHash, attached)
}

// TestIPStrideWalkCoverage: the same for a standalone IP-stride table,
// whose own Fork and StateHash run the walk directly. (Every replacement
// policy's fields are covered by the cache package's walk test.)
func TestIPStrideWalkCoverage(t *testing.T) {
	p := newDefault()
	feed(p, 0x400000, 0x1000, 0x1040, 0x1080)
	walktest.Check(t, p, (*IPStride).Fork, (*IPStride).StateHash, ipstrideAttached(""))
}
