package main

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// sessionKey seals every frame of every workload.
const sessionKey = "perfbench-session-key"

// timeOp calls f repeatedly for about budget (at least three times) and
// returns the mean microseconds per call.
func timeOp(budget time.Duration, f func()) float64 {
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < budget {
		f()
		n++
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}

// allocsOp is the average allocation count of one call of f.
func allocsOp(f func()) float64 { return testing.AllocsPerRun(20, f) }

// frameReplay replays captured service frames through protocol.InspectFrame
// and the AES codec, per frame class (kind, direction). The decode time and
// allocations are averaged over the classes weighted by how often each was
// captured, so they follow the workload's traffic mix.
func frameReplay(p *phase, tr *tracer) error {
	byClass := map[string][][]byte{}
	total := 0
	for _, fr := range tr.frames() {
		dir := "request"
		if fr.info.Response {
			dir = "response"
		}
		name := fmt.Sprintf("kind %d %s", fr.info.Kind, dir)
		byClass[name] = append(byClass[name], tr.payload(fr.span))
		total++
	}
	if total == 0 {
		p.notes = append(p.notes, "frame replay: no service frames captured")
		return nil
	}
	codec, err := transport.NewAESCodec(sessionKey)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(byClass))
	for k := range byClass {
		names = append(names, k)
	}
	sort.Strings(names)
	const perClass = 12
	var dec, allocs float64
	p.notes = append(p.notes, fmt.Sprintf("stage replay over %d captured service frames:", total))
	for _, k := range names {
		frames := byClass[k]
		step := max(1, len(frames)/perClass)
		var n, size, d, a, sl, op float64
		for j := 0; j < len(frames); j += step {
			f := frames[j]
			sealed, err := codec.Seal(f)
			if err != nil {
				return err
			}
			n++
			size += float64(len(f))
			d += timeOp(2*time.Millisecond, func() { protocol.InspectFrame(f) })
			a += allocsOp(func() { protocol.InspectFrame(f) })
			sl += timeOp(time.Millisecond, func() { _, _ = codec.Seal(f) })
			op += timeOp(time.Millisecond, func() { _, _ = codec.Open(sealed) })
		}
		w := float64(len(frames)) / float64(total)
		dec += w * d / n
		allocs += w * a / n
		p.notes = append(p.notes, fmt.Sprintf("    %-20s %6d captured %8.0f B  InspectFrame %8.2f us %6.1f allocs  AES seal %6.2f us  open %6.2f us",
			k, len(frames), size/n, d/n, a/n, sl/n, op/n))
	}
	p.layer["protocol.frame_decode_us"] = metric{dec, "us"}
	p.layer["protocol.frame_decode_allocs"] = metric{allocs, "count"}
	return nil
}

// modelReplay times EncodeModel and DecodeModel on a fitted model.
func modelReplay(p *phase, m classify.Classifier) error {
	blob, err := classify.EncodeModel(m)
	if err != nil {
		return err
	}
	if _, err := classify.DecodeModel(blob); err != nil {
		return err
	}
	enc := timeOp(20*time.Millisecond, func() { _, _ = classify.EncodeModel(m) })
	dec := timeOp(20*time.Millisecond, func() { _, _ = classify.DecodeModel(blob) })
	p.layer["classify.model_bytes"] = metric{float64(len(blob)), "B"}
	p.layer["classify.model_encode_ms"] = metric{enc / 1e3, "ms"}
	p.layer["classify.model_decode_ms"] = metric{dec / 1e3, "ms"}
	p.notes = append(p.notes, fmt.Sprintf("model replay: %d B, encode %.3f ms, decode %.3f ms", len(blob), enc/1e3, dec/1e3))
	return nil
}
