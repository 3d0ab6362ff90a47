package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// spanKind names what a span times.
type spanKind uint8

const (
	kCall     spanKind = iota // one primary call (or SAP round): the root of its spans
	kSend                     // transport.Conn.Send
	kRecv                     // transport.Conn.Recv returning a frame (an instant)
	kSeal                     // transport.Codec.Seal
	kOpen                     // transport.Codec.Open
	kPredict                  // classify.Classifier.Predict
	kFit                      // classify.Classifier.Fit
	kSwap                     // ServiceConfig.OnModelSwap on a leader (an instant)
	kInstall                  // ServiceConfig.OnModelSync on a replica (an instant; bytes = seq)
	kPublish                  // cluster.sync_published incremented (an instant)
	kOptimize                 // privacy.Optimizer.Optimize
)

var kindNames = [...]string{"call", "send", "recv", "seal", "open", "predict", "fit", "swap", "install", "publish", "optimize"}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is the index of the root call span the
// work belongs to, or -1.
type span struct {
	start, end int64
	parent     int32
	frame      int32 // offset of the captured payload (bytes long), -1 if not captured
	bytes      int64
	kind       spanKind
	node, peer int16 // endpoint indexes, -1 if none
}

// endpoint is one named transport endpoint the tracer knows. Client
// endpoints own the calls they make; owned endpoints (the SAP mesh)
// attribute all their work to their owner's current call.
type endpoint struct {
	name   string
	client bool
	owner  int16        // endpoint whose current call owns this one's work, -1 if none
	cur    atomic.Int32 // clients: root span of the call in flight
}

// tracer keeps spans in memory for one traced phase. Endpoints are
// registered before traffic starts, so lookups need no lock either. Spans and
// captured payloads live in memory mapped outside the Go heap: recording
// them neither triggers garbage collections nor changes their pacing, so
// the traced half collects garbage as often as the untraced quarters.
type tracer struct {
	epoch  time.Time
	eps    []*endpoint
	byName map[string]int16
	rows   map[uint64]int16 // query row key -> client endpoint that owns it

	// Recording is lock-free: each span and payload reserves its slot with
	// an atomic add. Spans are read only after the phase's goroutines have
	// stopped.
	spanMem []byte
	spans   []span       // over spanMem, maxSpans long
	n       atomic.Int64 // span slots reserved; beyond maxSpans they are dropped
	arena   []byte       // captured payloads; a span's frame is its offset here
	used    atomic.Int64
	framed  []framed // service frames among the captured payloads, decoded after the phase
}

// framed is one captured service frame: the span that carried it and its
// decoded routing header.
type framed struct {
	span span
	info protocol.FrameInfo
}

const (
	maxSpans      = 1 << 20
	captureBudget = 48 << 20  // bytes of payload copies kept for frame IDs and replays
	captureMax    = 256 << 10 // larger payloads (big model syncs) are not copied
)

func newTracer() (*tracer, error) {
	mmap := func(n int) ([]byte, error) {
		return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	}
	spanMem, err := mmap(maxSpans * int(unsafe.Sizeof(span{})))
	if err != nil {
		return nil, fmt.Errorf("map span memory: %w", err)
	}
	arena, err := mmap(captureBudget)
	if err != nil {
		_ = syscall.Munmap(spanMem) // released on the error path; nothing was recorded
		return nil, fmt.Errorf("map capture memory: %w", err)
	}
	return &tracer{epoch: time.Now(), byName: map[string]int16{}, rows: map[uint64]int16{},
		spanMem: spanMem, arena: arena,
		spans: unsafe.Slice((*span)(unsafe.Pointer(&spanMem[0])), maxSpans)}, nil
}

// close releases the span and capture memory; closing twice is harmless.
// Nothing may record into or read from the tracer afterwards.
func (t *tracer) close() error {
	if t.spanMem == nil {
		return nil // closed already
	}
	err1 := syscall.Munmap(t.spanMem)
	err2 := syscall.Munmap(t.arena)
	t.spanMem, t.arena, t.spans, t.framed = nil, nil, nil, nil
	if err1 != nil {
		return err1
	}
	return err2
}

// recorded is the number of spans kept.
func (t *tracer) recorded() int { return int(min(t.n.Load(), maxSpans)) }

// dropped is the number of spans lost to a full span memory.
func (t *tracer) dropped() int { return int(t.n.Load()) - t.recorded() }

// endpoint registers (or finds) a named endpoint.
func (t *tracer) endpoint(name string, client bool, owner string) int16 {
	if i, ok := t.byName[name]; ok {
		return i
	}
	e := &endpoint{name: name, client: client, owner: -1}
	if owner != "" {
		e.owner = t.byName[owner]
	}
	e.cur.Store(-1)
	t.eps = append(t.eps, e)
	t.byName[name] = int16(len(t.eps) - 1)
	return int16(len(t.eps) - 1)
}

func (t *tracer) index(name string) int16 {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// parentFor attributes work on node (talking to peer) to a call in flight.
func (t *tracer) parentFor(node, peer int16) int32 {
	if node >= 0 {
		e := t.eps[node]
		if e.client {
			return e.cur.Load()
		}
		if e.owner >= 0 {
			return t.eps[e.owner].cur.Load()
		}
	}
	if peer >= 0 && t.eps[peer].client {
		return t.eps[peer].cur.Load()
	}
	return -1
}

func (t *tracer) add(s span) int32 {
	i := t.n.Add(1) - 1
	if i >= maxSpans {
		return -1
	}
	t.spans[i] = s
	return int32(i)
}

func (t *tracer) instant(k spanKind, node int16, v int64) {
	now := t.now()
	t.add(span{start: now, end: now, parent: -1, frame: -1, bytes: v, kind: k, node: node, peer: -1})
}

// beginCall opens a root span for client's next call (-1 once the span
// memory is full). Only the client's own goroutine touches the span until
// the phase ends.
func (t *tracer) beginCall(client int16) int32 {
	i := t.n.Add(1) - 1
	if i >= maxSpans {
		i = -1
	} else {
		t.spans[i] = span{start: t.now(), end: -1, parent: int32(i), frame: -1, kind: kCall, node: client, peer: -1}
	}
	t.eps[client].cur.Store(int32(i))
	return int32(i)
}

// endCall closes a root span; records is stored in its bytes field.
func (t *tracer) endCall(i int32, records int) {
	if i >= 0 {
		t.spans[i].end = t.now()
		t.spans[i].bytes = int64(records)
	}
}

// capture copies payload into the capture memory within the budget and
// returns its offset there, or -1.
func (t *tracer) capture(payload []byte) int32 {
	if len(payload) > captureMax {
		return -1
	}
	end := t.used.Add(int64(len(payload)))
	if end > int64(len(t.arena)) {
		return -1
	}
	off := end - int64(len(payload))
	copy(t.arena[off:end], payload)
	return int32(off)
}

// payload returns the captured bytes of a span's frame.
func (t *tracer) payload(s span) []byte { return t.arena[s.frame : int64(s.frame)+s.bytes] }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	return append([]span(nil), t.spans[:t.recorded()]...)
}

// rowKey identifies a query row by its exact bits, so a predict on a
// decoded copy finds the client that sent it.
func rowKey(x []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// tracedCodec times Seal and Open around the real codec.
type tracedCodec struct {
	inner transport.Codec
	tr    *tracer
	node  int16
}

func (c *tracedCodec) Seal(p []byte) ([]byte, error) {
	s := c.tr.now()
	out, err := c.inner.Seal(p)
	c.tr.add(span{start: s, end: c.tr.now(), parent: c.tr.parentFor(c.node, -1), frame: -1,
		bytes: int64(len(p)), kind: kSeal, node: c.node, peer: -1})
	return out, err
}

func (c *tracedCodec) Open(sealed []byte) ([]byte, error) {
	s := c.tr.now()
	p, err := c.inner.Open(sealed)
	e := c.tr.now()
	// The TCP plaintext starts with [2-byte name length][sender name].
	peer := int16(-1)
	if err == nil && len(p) >= 2 {
		if n := int(binary.BigEndian.Uint16(p)); len(p) >= 2+n {
			peer = c.tr.index(string(p[2 : 2+n]))
		}
	}
	c.tr.add(span{start: s, end: e, parent: c.tr.parentFor(c.node, peer), frame: -1,
		bytes: int64(len(p)), kind: kOpen, node: c.node, peer: peer})
	return p, err
}

// tracedConn times Send and stamps Recv returns around the real endpoint.
type tracedConn struct {
	transport.Conn
	tr   *tracer
	node int16
}

func (c *tracedConn) Send(ctx context.Context, to string, payload []byte) error {
	peer := c.tr.index(to)
	parent := c.tr.parentFor(c.node, peer)
	s := c.tr.now()
	err := c.Conn.Send(ctx, to, payload)
	e := c.tr.now()
	c.tr.add(span{start: s, end: e, parent: parent, frame: c.tr.capture(payload),
		bytes: int64(len(payload)), kind: kSend, node: c.node, peer: peer})
	return err
}

func (c *tracedConn) Recv(ctx context.Context) (transport.Envelope, error) {
	env, err := c.Conn.Recv(ctx)
	if err != nil {
		return env, err
	}
	now := c.tr.now()
	peer := c.tr.index(env.From)
	c.tr.add(span{start: now, end: now, parent: c.tr.parentFor(c.node, peer), frame: c.tr.capture(env.Payload),
		bytes: int64(len(env.Payload)), kind: kRecv, node: c.node, peer: peer})
	return env, nil
}

// timedModel times Fit and Predict around a real classifier. Predicts are
// attributed to the client whose query row they score.
type timedModel struct {
	inner classify.Classifier
	tr    *tracer
	node  int16
}

func (m *timedModel) Fit(d *dataset.Dataset) error {
	s := m.tr.now()
	err := m.inner.Fit(d)
	m.tr.add(span{start: s, end: m.tr.now(), parent: -1, frame: -1, bytes: int64(d.Len()), kind: kFit, node: m.node, peer: -1})
	return err
}

func (m *timedModel) Predict(x []float64) (int, error) {
	s := m.tr.now()
	y, err := m.inner.Predict(x)
	e := m.tr.now()
	parent := int32(-1)
	if c, ok := m.tr.rows[rowKey(x)]; ok {
		parent = m.tr.eps[c].cur.Load()
	}
	m.tr.add(span{start: s, end: e, parent: parent, frame: -1, bytes: 1, kind: kPredict, node: m.node, peer: -1})
	return y, err
}

func (m *timedModel) Clone() classify.Classifier {
	return &timedModel{inner: m.inner.(classify.Cloner).Clone(), tr: m.tr, node: m.node}
}

// eventSink forwards to a metrics registry and stamps every increment of
// the cluster's sync-published counter as a kPublish instant.
type eventSink struct {
	*metrics.Registry
	tr   *tracer
	node int16
}

func (s eventSink) Counter(name string) metrics.Counter {
	c := s.Registry.Counter(name)
	if name == "cluster.sync_published" {
		return publishCounter{c, s}
	}
	return c
}

type publishCounter struct {
	metrics.Counter
	s eventSink
}

func (p publishCounter) Add(d int64) {
	p.Counter.Add(d)
	for i := int64(0); i < d; i++ {
		p.s.tr.instant(kPublish, p.s.node, 0)
	}
}

func (p publishCounter) Inc() { p.Add(1) }

// stages is the breakdown of one traced call along its blocking path, in
// microseconds. The named stages plus residual sum to total.
type stages struct {
	total, encode, cliSeal, cliSend, srvOpen, service, predict, srvSeal, srvSend, cliOpen, decode, residual float64
}

var stageNames = []string{"client encode", "client seal", "client send (excl. seal)", "server open",
	"service self", "predict", "server seal", "server send (excl. seal)", "client open", "client decode", "residual"}

func (s stages) values() []float64 {
	return []float64{s.encode, s.cliSeal, s.cliSend, s.srvOpen, s.service, s.predict, s.srvSeal, s.srvSend, s.cliOpen, s.decode, s.residual}
}

// breakdown splits every traced call of the given client endpoints into
// stages. Calls whose frames cannot be matched one-to-one (retries, route
// discovery) are skipped and counted.
func breakdown(spans []span, clients map[int16]bool) (out []stages, skipped int) {
	type acc struct {
		call                                                 span
		sends, recvs, srvRecvs, srvSends                     int
		cliSend, cliRecv, srvRecv, srvSend, cliSeal, srvOpen span
		cliOpen                                              span
		cliSeals, srvOpens, cliOpens                         int
		predict                                              int64
	}
	calls := map[int32]*acc{}
	var srvSeals []span
	for _, s := range spans {
		if s.kind == kSeal && s.parent < 0 {
			srvSeals = append(srvSeals, s)
			continue
		}
		if s.parent < 0 {
			continue
		}
		a := calls[s.parent]
		if a == nil {
			a = &acc{}
			calls[s.parent] = a
		}
		switch s.kind {
		case kCall:
			a.call = s
		case kPredict:
			a.predict += s.end - s.start
		}
	}
	for _, s := range spans {
		if s.parent < 0 || s.kind == kCall || s.kind == kPredict {
			continue
		}
		a := calls[s.parent]
		if a == nil {
			continue
		}
		own := s.node == a.call.node
		switch {
		case s.kind == kSend && own:
			a.sends++
			a.cliSend = s
		case s.kind == kRecv && own:
			a.recvs++
			a.cliRecv = s
		case s.kind == kSeal && own:
			a.cliSeals++
			a.cliSeal = s
		case s.kind == kOpen && own:
			a.cliOpens++
			a.cliOpen = s
		case s.kind == kRecv:
			a.srvRecvs++
			a.srvRecv = s
		case s.kind == kSend:
			a.srvSends++
			a.srvSend = s
		case s.kind == kOpen:
			a.srvOpens++
			a.srvOpen = s
		}
	}
	sort.Slice(srvSeals, func(i, j int) bool { return srvSeals[i].start < srvSeals[j].start })
	// sealIn finds the seal a node ran inside one of its sends.
	sealIn := func(node int16, from, to int64) (span, bool) {
		i := sort.Search(len(srvSeals), func(i int) bool { return srvSeals[i].start >= from })
		for ; i < len(srvSeals) && srvSeals[i].start <= to; i++ {
			if srvSeals[i].node == node && srvSeals[i].end <= to {
				return srvSeals[i], true
			}
		}
		return span{}, false
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ids := make([]int32, 0, len(calls))
	for id := range calls {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := calls[id]
		if a.call.kind != kCall || a.call.end < 0 || !clients[a.call.node] {
			continue
		}
		if a.sends != 1 || a.recvs != 1 || a.srvRecvs != 1 || a.srvSends != 1 ||
			a.cliSeals != 1 || a.srvOpens != 1 || a.cliOpens != 1 {
			skipped++
			continue
		}
		seal, ok := sealIn(a.srvSend.node, a.srvSend.start, a.srvSend.end)
		if !ok {
			skipped++
			continue
		}
		st := stages{
			total:   us(a.call.end - a.call.start),
			encode:  us(a.cliSend.start - a.call.start),
			cliSeal: us(a.cliSeal.end - a.cliSeal.start),
			cliSend: us(a.cliSend.end - a.cliSend.start - (a.cliSeal.end - a.cliSeal.start)),
			srvOpen: us(a.srvOpen.end - a.srvOpen.start),
			service: us(a.srvSend.start - a.srvRecv.start - a.predict),
			predict: us(a.predict),
			srvSeal: us(seal.end - seal.start),
			srvSend: us(a.srvSend.end - a.srvSend.start - (seal.end - seal.start)),
			cliOpen: us(a.cliOpen.end - a.cliOpen.start),
			decode:  us(a.call.end - a.cliRecv.start),
		}
		st.residual = us(a.srvRecv.start-a.cliSend.end-(a.srvOpen.end-a.srvOpen.start)) +
			us(a.cliRecv.start-a.srvSend.end-(a.cliOpen.end-a.cliOpen.start))
		out = append(out, st)
	}
	return out, skipped
}

// stageReport adds to the report the mean of each stage and its share of
// the calls around the median (p40-p60 by total).
func stageReport(p *phase, title string, calls []stages, skipped int) {
	if len(calls) == 0 {
		p.notes = append(p.notes, fmt.Sprintf("%s: no attributable calls (%d skipped)", title, skipped))
		return
	}
	sorted := append([]stages(nil), calls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total < sorted[j].total })
	band := sorted[len(sorted)*2/5 : max(len(sorted)*3/5, len(sorted)*2/5+1)]
	meanOf := func(cs []stages) (stages, []float64) {
		var tot float64
		sums := make([]float64, len(stageNames))
		for _, c := range cs {
			tot += c.total
			for i, v := range c.values() {
				sums[i] += v
			}
		}
		n := float64(len(cs))
		for i := range sums {
			sums[i] /= n
		}
		return stages{total: tot / n}, sums
	}
	all, allMeans := meanOf(calls)
	mid, midMeans := meanOf(band)
	p.notes = append(p.notes, fmt.Sprintf("%s: %d calls attributed (%d skipped); mean %.1f us, p40-p60 band mean %.1f us (n=%d)",
		title, len(calls), skipped, all.total, mid.total, len(band)))
	for i, name := range stageNames {
		p.notes = append(p.notes, fmt.Sprintf("    %-26s mean %9.2f us   share of p50 band %5.1f%%", name, allMeans[i], 100*midMeans[i]/mid.total))
	}
}

// protocolMetrics returns the protocol.* request-path means of the calls.
func protocolMetrics(calls []stages) map[string]metric {
	if len(calls) == 0 {
		return nil
	}
	var enc, dec, svc, res, tot float64
	for _, c := range calls {
		enc += c.encode
		dec += c.decode
		svc += c.service
		res += c.residual
		tot += c.total
	}
	n := float64(len(calls))
	return map[string]metric{
		"protocol.client_encode_us":   {enc / n, "us"},
		"protocol.client_decode_us":   {dec / n, "us"},
		"protocol.service_self_us":    {svc / n, "us"},
		"protocol.rtt_residual_us":    {res / n, "us"},
		"protocol.rtt_residual_share": {100 * res / tot, "%"},
	}
}

// transportMetrics summarizes every seal, open and send of the phase.
// Request frames are those sent by client (or owned) endpoints, response
// frames those sent to clients.
func transportMetrics(t *tracer, spans []span, records int64) map[string]metric {
	var seal, open, send []float64
	var reqB, respB, allB, reqN, respN float64
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e3
		switch s.kind {
		case kSeal:
			seal = append(seal, d)
		case kOpen:
			open = append(open, d)
		case kSend:
			send = append(send, d)
			allB += float64(s.bytes)
			switch {
			case s.node >= 0 && (t.eps[s.node].client || t.eps[s.node].owner >= 0):
				reqB += float64(s.bytes)
				reqN++
			case s.peer >= 0 && t.eps[s.peer].client:
				respB += float64(s.bytes)
				respN++
			}
		}
	}
	m := map[string]metric{
		"transport.seal_us": {mean(seal), "us"},
		"transport.open_us": {mean(open), "us"},
		"transport.send_us": {mean(send), "us"},
	}
	if reqN > 0 {
		m["transport.req_frame_bytes"] = metric{reqB / reqN, "B"}
	}
	if respN > 0 {
		m["transport.resp_frame_bytes"] = metric{respB / respN, "B"}
	}
	if records > 0 {
		m["transport.bytes_per_record"] = metric{allB / float64(records), "B"}
	}
	return m
}

// frames decodes the routing header of every captured payload once, after
// the phase, and returns the service frames among them.
func (t *tracer) frames() []framed {
	if t.framed != nil {
		return t.framed
	}
	t.framed = []framed{}
	for _, s := range t.snapshot() {
		if s.frame < 0 {
			continue
		}
		if info, ok := protocol.InspectFrame(t.payload(s)); ok {
			t.framed = append(t.framed, framed{s, info})
		}
	}
	return t.framed
}

// write dumps the spans as tab-separated lines: kind, node, peer, start
// and end (ns since the phase began), parent, frame ID (0 when the frame
// was not captured or is not a service frame), bytes.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	ids := map[int32]uint64{}
	for _, fr := range t.frames() {
		ids[fr.span.frame] = fr.info.ID
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tnode\tpeer\tstart_ns\tend_ns\tparent\tframe_id\tbytes")
	nameOf := func(i int16) string {
		if i < 0 {
			return "-"
		}
		return t.eps[i].name
	}
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], nameOf(s.node), nameOf(s.peer),
			s.start, s.end, s.parent, ids[s.frame], s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
