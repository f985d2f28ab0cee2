package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/exec"
	"txconcur/internal/mempool"
)

// The traced run wraps the public seams between layers in pass-through
// decorators that record spans. Spans live in memory until the run ends,
// then are written out as one TSV file; the per-layer metrics are computed
// from them. Nothing in the program packages changes.

// span is one timed call across a layer seam.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	// gid is the calling goroutine where containment needs it (the fs
	// seam and the wal/basestore spans that may enclose it), else 0.
	gid uint64
	// id is the transaction index or block height, -1 when none.
	id int64
	// n is a size: bytes written, entries applied, transactions appended.
	n int64
	// parent is the index of the enclosing span, -1 for none (set by
	// link).
	parent int32
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// recorder collects spans. A nil *recorder records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall time into the recorder's clock (0 when nil).
func (r *recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

func (r *recorder) now() int64 { return r.at(time.Now()) }

// add records a span that started at start (recorder clock) and ends now.
func (r *recorder) add(name string, start int64, gid uint64, id, n int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, gid: gid, id: id, n: n, parent: -1})
	r.mu.Unlock()
}

// addSpan records a span with explicit times.
func (r *recorder) addSpan(s span) {
	if r == nil {
		return
	}
	s.parent = -1
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// containers are the spans an fs span can be attributed to.
var containers = map[string]bool{
	"wal.append": true, "wal.sync": true, "wal.ckpt": true, "wal.open": true,
	"wal.recover_open": true, "wal.recover": true, "wal.materialize": true,
	"basestore.apply": true, "basestore.range": true, "basestore.open": true,
}

// link attributes every fs span to the innermost container span on the
// same goroutine whose interval contains it.
func (r *recorder) link() {
	byG := map[uint64][]int32{}
	for i, s := range r.spans {
		if containers[s.name] {
			byG[s.gid] = append(byG[s.gid], int32(i))
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if len(s.name) < 3 || s.name[:3] != "fs." {
			continue
		}
		best := int32(-1)
		for _, j := range byG[s.gid] {
			c := r.spans[j]
			if c.start <= s.start && s.end <= c.end && (best < 0 || c.dur() < r.spans[best].dur()) {
				best = j
			}
		}
		s.parent = best
	}
}

// write stores every span as TSV: name, start_ns, end_ns, goroutine, id,
// size, parent name.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tgoroutine\tid\tsize\tparent")
	for _, s := range r.spans {
		parent := "-"
		if s.parent >= 0 {
			parent = r.spans[s.parent].name
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n", s.name, s.start, s.end, s.gid, s.id, s.n, parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// query helpers over the recorded spans.

func (r *recorder) named(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the spans' durations in the given unit.
func durs(ss []span, unit time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

func busy(ss []span) float64 {
	var t time.Duration
	for _, s := range ss {
		t += s.dur()
	}
	return t.Seconds()
}

func sizes(ss []span) int64 {
	var n int64
	for _, s := range ss {
		n += s.n
	}
	return n
}

// children returns the fs spans linked under any span with one of the
// given names.
func (r *recorder) children(names ...string) []span {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []span
	for _, s := range r.spans {
		if s.parent >= 0 && want[r.spans[s.parent].name] {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, ss []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range ss {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(0)
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// selfTime is the parents' busy time minus the part of each parent that
// the child spans starting inside it cover. A child that carries an id
// counts only under a parent with the same id.
func selfTime(parents, kids []span) float64 {
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var t time.Duration
	for _, p := range parents {
		lo := sort.Search(len(kids), func(i int) bool { return kids[i].start >= p.start })
		var mine []span
		for _, k := range kids[lo:] {
			if k.start >= p.end {
				break
			}
			if k.id < 0 || k.id == p.id {
				mine = append(mine, k)
			}
		}
		t += p.dur() - covered(p.start, p.end, mine)
	}
	return t.Seconds()
}

// Decorators. Each forwards every call unchanged and records a span.

// tracedPacker records each Pack call and remembers, for every packed
// transaction, when the call that packed it started and returned, so the
// block's fill and validation times can be derived when it is emitted.
type tracedPacker struct {
	mempool.Packer
	r *recorder

	mu     sync.Mutex
	packed map[*account.Transaction][2]int64
}

func (p *tracedPacker) Pack(pending []*mempool.Pending, cfg mempool.PackConfig) []int {
	start := p.r.now()
	idx := p.Packer.Pack(pending, cfg)
	end := p.r.now()
	p.r.addSpan(span{name: "mempool.pack", start: start, end: end, id: -1, n: int64(len(idx))})
	p.mu.Lock()
	for _, i := range idx {
		p.packed[pending[i].Tx] = [2]int64{start, end}
	}
	p.mu.Unlock()
	return idx
}

// closed reports when the Pack call that packed blk's first transaction
// started and returned.
func (p *tracedPacker) closed(blk *account.Block) (start, end int64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.packed[blk.Txs[0]]
	return t[0], t[1], ok
}

// tracedLog wraps the builder's block log.
type tracedLog struct {
	inner mempool.BlockLog
	r     *recorder
	p     *tracedPacker
}

func (l *tracedLog) Append(blk *account.Block) (uint64, error) {
	start := l.r.now()
	if _, end, ok := l.p.closed(blk); ok {
		l.r.addSpan(span{name: "mempool.validate", start: end, end: start, id: int64(blk.Height)})
	}
	g := goid()
	idx, err := l.inner.Append(blk)
	l.r.add("wal.append", start, g, int64(blk.Height), int64(len(blk.Txs)))
	return idx, err
}

func (l *tracedLog) Sync() error {
	start, g := l.r.now(), goid()
	err := l.inner.Sync()
	l.r.add("wal.sync", start, g, -1, 0)
	return err
}

// tracedSink wraps the executor's checkpoint sink.
type tracedSink struct {
	inner exec.CheckpointSink
	r     *recorder
}

func (s *tracedSink) Interval() int { return s.inner.Interval() }

func (s *tracedSink) Checkpoint(idx int, st *account.StateDB) {
	start, g := s.r.now(), goid()
	s.inner.Checkpoint(idx, st)
	s.r.add("wal.ckpt", start, g, int64(idx), 0)
}

// tracedBackend wraps the executor's state backend. Gets are split into
// hits and misses (negative lookups).
type tracedBackend struct {
	inner exec.StateBackend
	r     *recorder
}

func (b *tracedBackend) Get(key []byte) ([]byte, bool, error) {
	start := b.r.now()
	v, ok, err := b.inner.Get(key)
	name := "basestore.get_miss"
	if ok {
		name = "basestore.get_hit"
	}
	b.r.add(name, start, 0, -1, 0)
	return v, ok, err
}

func (b *tracedBackend) Apply(entries []basestore.Entry) error {
	start, g := b.r.now(), goid()
	err := b.inner.Apply(entries)
	b.r.add("basestore.apply", start, g, -1, int64(len(entries)))
	return err
}

func (b *tracedBackend) Range(fn func(key string, val []byte) bool) error {
	start, g := b.r.now(), goid()
	err := b.inner.Range(fn)
	b.r.add("basestore.range", start, g, -1, 0)
	return err
}

// tracedFS wraps the filesystem handed to wal.Open and
// basestore.OpenStore. Writes, fsyncs, directory syncs and renames are
// recorded; reads pass through untimed.
type tracedFS struct {
	basestore.FS
	r *recorder
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (basestore.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: h, r: f.r}, nil
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	start, g := f.r.now(), goid()
	err := f.FS.Rename(oldpath, newpath)
	f.r.add("fs.rename", start, g, -1, 0)
	return err
}

func (f tracedFS) SyncDir(dir string) error {
	start, g := f.r.now(), goid()
	err := f.FS.SyncDir(dir)
	f.r.add("fs.dirsync", start, g, -1, 0)
	return err
}

// tracedFile counts written bytes without a span per Write (table writers
// issue two small writes per entry); the bytes written since the last sync
// are recorded as one fs.write span, from the first of those writes to the
// sync, when the file is synced or closed.
type tracedFile struct {
	basestore.File
	r *recorder

	mu    sync.Mutex
	first int64
	bytes int64
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.mu.Lock()
	if f.bytes == 0 {
		f.first = f.r.now()
	}
	f.bytes += int64(n)
	f.mu.Unlock()
	return n, err
}

// flushWrites records the pending write span.
func (f *tracedFile) flushWrites(g uint64) {
	f.mu.Lock()
	first, n := f.first, f.bytes
	f.bytes = 0
	f.mu.Unlock()
	if n > 0 {
		f.r.add("fs.write", first, g, -1, n)
	}
}

func (f *tracedFile) Sync() error {
	g := goid()
	f.flushWrites(g)
	start := f.r.now()
	err := f.File.Sync()
	f.r.add("fs.fsync", start, g, -1, 0)
	return err
}

func (f *tracedFile) Close() error {
	f.flushWrites(goid())
	return f.File.Close()
}

// tracedTransport wraps the submitters' HTTP transport.
type tracedTransport struct {
	inner http.RoundTripper
	r     *recorder
	calls atomic.Int64
}

// txHeader carries a submission's index from the client to the server
// span, so the client's self time subtracts only its own handler.
const txHeader = "Perfbench-Tx"

// txIDKey is the request context key of the submission index.
type txIDKey struct{}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.calls.Add(1)
	id := int64(-1)
	if i, ok := req.Context().Value(txIDKey{}).(int); ok {
		id = int64(i)
		req = req.Clone(req.Context())
		req.Header.Set(txHeader, strconv.Itoa(i))
	}
	start := t.r.now()
	resp, err := t.inner.RoundTrip(req)
	t.r.add("client.rpc", start, 0, id, 0)
	return resp, err
}

// tracedHandler wraps the builder server: the server side of one
// submission, JSON decoding plus pool admission.
type tracedHandler struct {
	inner http.Handler
	r     *recorder
	depth func() int
	max   *maxGauge
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.ParseInt(req.Header.Get(txHeader), 10, 64)
	if err != nil {
		id = -1
	}
	start := h.r.now()
	h.inner.ServeHTTP(w, req)
	h.r.add("mempool.admit", start, 0, id, 0)
	h.max.note(int64(h.depth()))
}
