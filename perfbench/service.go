package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"afterimage"
	"afterimage/internal/client"
	"afterimage/internal/obslog"
	"afterimage/internal/server"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// The service workload: the campaign server at the afterimage-serve
// defaults, with a fresh on-disk store and checkpoint directory, behind
// httptest. Two closed-loop clients submit as two tenants: about 80 % of
// requests resubmit a completed spec (store reads), 20 % are new specs
// (campaign, checkpoint and store writes), and a quarter of the new specs
// are also sent by the other client at once, so single-flight joins occur.
// Load comes from this one process with two concurrent callers, one per
// core.
// Cluster dispatch is left out: two in-process workers on two cores would
// measure the scheduler, not dispatch.

const (
	serviceClients = 2
	// Each client sends a new spec every serviceNewEvery-th request and
	// resubmits a completed one otherwise; every serviceJointEvery-th new
	// spec is also handed to the other client. A fixed cadence rather than
	// a coin flip keeps the mix, and with it the throughput, the same from
	// run to run.
	serviceNewEvery   = 5
	serviceJointEvery = 4
)

type serviceBench struct {
	e   *env
	dir string
	reg *telemetry.Registry
	fs  *timedFS // nil unless the run is a ledger
	st  *store.Store
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
	cl  [serviceClients]*client.Client

	rec    atomic.Pointer[recorder] // the traced pass's recorder, read by the middleware
	passes int
	next   [serviceClients]int // per-client new-spec counters, kept across passes
	// refs caches the in-process reference result per campaign key.
	refs map[string][]byte
	// Per-layer results: split from the latest untraced pass, registry
	// and file-system figures from the latest traced pass.
	split  metricSet
	traced metricSet
}

// openService's set-up is the store open, the server start and the client
// handshake.
func openService(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.work, "service-")
	if err != nil {
		return nil, err
	}
	b := &serviceBench{e: e, dir: dir, reg: telemetry.NewRegistry(), refs: map[string][]byte{}}
	var fsys vfs.FS
	if e.ledger {
		b.fs = &timedFS{FS: vfs.OS()}
		fsys = b.fs
	}
	log := obslog.New(io.Discard, obslog.LevelInfo, obslog.FormatText).With(obslog.F("component", "afterimage-serve"))
	b.st, _, err = store.OpenWith(store.Options{Dir: filepath.Join(dir, "store"), Registry: b.reg, FS: fsys, Logger: log})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.srv, err = server.New(server.Config{
		Store: b.st, FS: fsys, CheckpointDir: filepath.Join(dir, "checkpoints"), Registry: b.reg, Logger: log,
	})
	if err != nil {
		b.st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	b.ts = httptest.NewServer(b.middleware(b.srv.Handler()))
	b.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for c := range b.cl {
		b.cl[c] = client.New(b.ts.URL)
		b.cl[c].HTTP = b.hc
		if err := b.cl[c].WaitReady(ctx); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func (b *serviceBench) close() {
	b.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Drain(ctx)
	b.st.Close()
	b.hc.CloseIdleConnections()
	os.RemoveAll(b.dir)
}

// middleware records a server.handle span for traced requests. The client
// sends "svc.<client>.<root span id>" as the correlation ID, which links the
// span to its operation.
func (b *serviceBench) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := b.rec.Load()
		corr := r.Header.Get(server.HeaderCampaignID)
		parts := strings.Split(corr, ".")
		if rec == nil || len(parts) != 3 || parts[0] != "svc" {
			h.ServeHTTP(w, r)
			return
		}
		c, _ := strconv.Atoi(parts[1])
		parent, _ := strconv.Atoi(parts[2])
		id := rec.begin("service", "server.handle", corr, parent, tidServiceClient0+c)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// newSpec is client c's next never-submitted spec.
func (b *serviceBench) newSpec(c int) server.CampaignSpec {
	n := int64(serviceClients*b.next[c] + c)
	b.next[c]++
	return server.CampaignSpec{
		Tenant: fmt.Sprintf("tenant%d", c),
		Attack: sweepAttacks[poolIndex(b.e.seed, int(n), len(sweepAttacks))].a.String(),
		Seed:   b.e.seed + n,
	}
}

// svcOp is one request's outcome.
type svcOp struct {
	spec   server.CampaignSpec
	ms     float64
	source string
	key    string
	body   []byte
	err    error
}

func (b *serviceBench) measure(ctx context.Context, deadline time.Time, minOps, maxOps int, rec *recorder) *pass {
	p := &pass{}
	b.passes++
	b.rec.Store(rec)
	if b.fs != nil {
		b.fs.reset(rec)
	}
	before := b.reg.Snapshot()

	// Enough requests for every client to send a new spec and resubmit it.
	minOps = max(minOps, serviceClients*serviceNewEvery)
	var started atomic.Int64
	next := func() bool {
		n := int(started.Add(1))
		return (maxOps == 0 || n <= maxOps) && (n <= minOps || time.Now().Before(deadline))
	}
	inbox := [serviceClients]chan server.CampaignSpec{}
	for c := range inbox {
		inbox[c] = make(chan server.CampaignSpec, 1) // one pending joint spec
	}
	ops := make([][]svcOp, serviceClients)
	var wg sync.WaitGroup
	start, allocs := time.Now(), heapAllocs()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops[c] = b.client(ctx, c, rec, next, inbox[c], inbox[(c+1)%serviceClients])
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.allocBytes = heapAllocs() - allocs
	b.rec.Store(nil)

	var all []svcOp
	for _, o := range ops {
		all = append(all, o...)
	}
	if err := b.references(all); err != nil {
		p.fail("service: in-process reference: %v", err)
	}
	lat := map[string][]float64{}
	shed := 0
	for _, o := range all {
		p.attempted++
		switch {
		case o.err != nil:
			var re *client.RetryableError
			if errors.As(o.err, &re) && re.Status == http.StatusTooManyRequests {
				shed++
			}
			p.fail("service %s %s seed %d: %v", o.spec.Tenant, o.spec.Attack, o.spec.Seed, o.err)
			continue
		case o.key != o.spec.Normalize().Key():
			p.fail("service %s seed %d: key %s, want %s", o.spec.Attack, o.spec.Seed, o.key, o.spec.Normalize().Key())
			continue
		case !bytes.Equal(o.body, b.refs[o.key]):
			p.fail("service %s seed %d (%s): body differs from the in-process RunFaultSweepCtx JSON", o.spec.Attack, o.spec.Seed, o.source)
			continue
		}
		p.lat = append(p.lat, o.ms)
		lat[o.source] = append(lat[o.source], o.ms)
		var res afterimage.SweepResult
		if o.source == "miss" && json.Unmarshal(o.body, &res) == nil {
			for _, pt := range res.Points {
				p.simEvents += float64(pt.Cycles)
			}
		}
	}

	n := float64(len(p.lat))
	split := metricSet{}
	for _, src := range []string{"hit", "miss"} {
		if xs := lat[src]; len(xs) > 0 {
			tail, pct := tailOf(xs)
			split.set("service."+src+"_ms_p50", median(xs), "ms")
			split.set("service."+src+"_ms_tail", tail, "ms")
			p.notes = append(p.notes, fmt.Sprintf("%s_ms_p50 %.4g ms, %s_ms_tail %.4g ms (p%s over n=%d)",
				src, median(xs), src, tail, pct, len(xs)))
		}
	}
	split.set("service.hit_share", float64(len(lat["hit"]))/n, "ratio")
	split.set("service.join_share", float64(len(lat["join"]))/n, "ratio")
	split.set("service.shed", float64(shed), "count")
	p.notes = append(p.notes, fmt.Sprintf("mix: %d hit, %d miss, %d join, %d shed (429)",
		len(lat["hit"]), len(lat["miss"]), len(lat["join"]), shed))
	if rec == nil {
		b.split = split
	} else {
		b.traced = b.registryLayers(before, b.reg.Snapshot(), median(lat["hit"]))
	}
	return p
}

// client runs one closed-loop client until next says stop.
func (b *serviceBench) client(ctx context.Context, c int, rec *recorder, next func() bool,
	inbox <-chan server.CampaignSpec, peer chan<- server.CampaignSpec) []svcOp {
	rng := rand.New(rand.NewSource(b.e.seed*1000 + int64(b.passes*serviceClients+c)))
	var done []server.CampaignSpec
	var out []svcOp
	for k, news := 0, 0; next(); {
		var spec server.CampaignSpec
		select {
		case spec = <-inbox: // the other client's joint spec
		default:
			if k%serviceNewEvery == 0 || len(done) == 0 {
				spec = b.newSpec(c)
				if news%serviceJointEvery == serviceJointEvery-1 {
					select {
					case peer <- spec:
					default: // the peer has one pending already
					}
				}
				news++
			} else {
				spec = done[rng.Intn(len(done))]
			}
			k++
		}
		o := svcOp{spec: spec}
		cl := b.cl[c]
		t := time.Now()
		root := rec.begin("service", "service.op", "", 0, tidServiceClient0+c)
		if rec != nil {
			cl.Correlation = fmt.Sprintf("svc.%d.%d", c, root)
			rec.setOp(root, cl.Correlation)
		}
		res, err := cl.Submit(ctx, spec)
		rec.end(root)
		o.ms, o.err = msSince(t), err
		if err == nil {
			o.source, o.key, o.body = res.Source, res.Key, res.Body
			done = append(done, spec)
		}
		out = append(out, o)
	}
	b.cl[c].Correlation = ""
	return out
}

// references computes the in-process result JSON of every campaign key not
// yet known.
func (b *serviceBench) references(ops []svcOp) error {
	var todo []server.CampaignSpec
	seen := map[string]bool{}
	for _, o := range ops {
		if o.err != nil || o.key == "" || seen[o.key] {
			continue
		}
		seen[o.key] = true
		if _, ok := b.refs[o.key]; !ok {
			todo = append(todo, o.spec)
		}
	}
	bodies := make([][]byte, len(todo))
	err := onTwoWorkers(len(todo), func(i int) (err error) {
		bodies[i], err = referenceSweep(todo[i])
		return err
	})
	for i, spec := range todo {
		b.refs[spec.Normalize().Key()] = bodies[i]
	}
	return err
}

// referenceSweep runs a spec in-process the way the server executes it.
func referenceSweep(spec server.CampaignSpec) ([]byte, error) {
	var attack afterimage.SweepAttack
	found := false
	for _, a := range sweepAttacks {
		if a.a.String() == spec.Attack {
			attack, found = a.a, true
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown attack %q", spec.Attack)
	}
	lab, err := afterimage.NewLabE(afterimage.Options{Model: afterimage.CoffeeLake, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	res, err := lab.RunFaultSweepCtx(context.Background(), afterimage.SweepOptions{
		Attack: attack, Bits: 32, Intensities: sweepIntensities,
	})
	if err != nil {
		return nil, err
	}
	return res.JSON()
}

// registryLayers derives the per-layer service figures from the server's
// registry over one pass and from the timing file system.
func (b *serviceBench) registryLayers(before, after telemetry.Snapshot, hitMS float64) metricSet {
	m := metricSet{}
	histMean := func(name string) float64 {
		a, z := after.Histograms[name], before.Histograms[name]
		if a.Count == z.Count {
			return 0
		}
		return float64(a.Sum-z.Sum) / float64(a.Count-z.Count)
	}
	read := histMean("store.read.us")
	m.set("service.store_read_us", read, "us")
	m.set("service.hit_self_us", hitMS*1e3-read, "us")
	m.set("service.store_write_us", histMean("store.write.us"), "us")
	m.set("service.queue_wait_us", histMean("server.queue.wait.us"), "us")
	m.set("service.runner_attempt_us", histMean("runner.attempt.us"), "us")
	for op, name := range fsOpNames {
		n := b.fs.ops[op].n.Load()
		us := 0.0
		if n > 0 {
			us = float64(b.fs.ops[op].ns.Load()) / float64(n) / 1e3
		}
		m.set("service.fs."+name+"_us", us, "us")
		m.set("service.fs."+name+"_count", float64(n), "count")
	}
	return m
}

func (b *serviceBench) layers(out metricSet) {
	for _, m := range []metricSet{b.split, b.traced} {
		for k, v := range m {
			out[k] = v
		}
	}
}

// timedFS is the vfs.FS handed to the store and the checkpoint writer: while
// a recorder is set it times and counts every write-path operation and
// records a span per call.
type timedFS struct {
	vfs.FS
	rec atomic.Pointer[recorder]
	ops [len(fsOpNames)]struct{ n, ns atomic.Int64 }
}

const (
	fsCreate = iota
	fsWrite
	fsSync
	fsRename
	fsSyncDir
)

var fsOpNames = [...]string{"create", "write", "sync", "rename", "syncdir"}

func (f *timedFS) reset(rec *recorder) {
	for i := range f.ops {
		f.ops[i].n.Store(0)
		f.ops[i].ns.Store(0)
	}
	f.rec.Store(rec)
}

func (f *timedFS) timed(op int, path string, fn func() error) error {
	rec := f.rec.Load()
	if rec == nil {
		return fn()
	}
	id := rec.begin("service", "vfs."+fsOpNames[op], filepath.Base(path), 0, tidFS)
	t := time.Now()
	err := fn()
	f.ops[op].ns.Add(int64(time.Since(t)))
	f.ops[op].n.Add(1)
	rec.end(id)
	return err
}

func (f *timedFS) Create(path string) (vfs.File, error) {
	var file vfs.File
	err := f.timed(fsCreate, path, func() (err error) {
		file, err = f.FS.Create(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, path: path}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	return f.timed(fsRename, newpath, func() error { return f.FS.Rename(oldpath, newpath) })
}

func (f *timedFS) SyncDir(path string) error {
	return f.timed(fsSyncDir, path, func() error { return f.FS.SyncDir(path) })
}

type timedFile struct {
	vfs.File
	fs   *timedFS
	path string
}

func (t *timedFile) Write(p []byte) (n int, err error) {
	err = t.fs.timed(fsWrite, t.path, func() error {
		n, err = t.File.Write(p)
		return err
	})
	return n, err
}

func (t *timedFile) Sync() error {
	return t.fs.timed(fsSync, t.path, t.File.Sync)
}
