package prefetcher

import "testing"

// trainSome walks three distinct IPs far enough to allocate, confirm and
// fire their entries, leaving a populated table, live Bit-PLRU state and a
// recorded last issue.
func trainSome(p *IPStride) {
	feed(p, 0x400100, 0x10000, 0x10000+7*line, 0x10000+14*line, 0x10000+21*line)
	feed(p, 0x400200, 0x20000, 0x20000+3*line, 0x20000+6*line)
	feed(p, 0x400300, 0x30000, 0x30000+5*line)
}

func TestIPStrideAuditCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *IPStride)
	}{
		{"stride-overflow", func(p *IPStride) { p.CorruptStride(0, p.cfg.MaxStrideBytes+64) }},
		{"confidence-out-of-range", func(p *IPStride) { p.CorruptConfidence(1, p.cfg.MaxConfidence+3) }},
		{"plru-all-ones", func(p *IPStride) {
			if !p.CorruptPLRU() {
				t.Skip("policy not Bit-PLRU")
			}
		}},
		{"cross-frame-issue", func(p *IPStride) { p.CorruptCrossFrame() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newDefault()
			trainSome(p)
			if errs := p.Audit(); len(errs) != 0 {
				t.Fatalf("pre-corruption audit dirty: %v", errs)
			}
			tc.corrupt(p)
			if errs := p.Audit(); len(errs) == 0 {
				t.Fatal("audit missed the corruption")
			}
		})
	}
}
