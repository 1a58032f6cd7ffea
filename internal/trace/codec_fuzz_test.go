package trace

import (
	"bytes"
	"runtime/metrics"
	"testing"
)

// FuzzDecodeRecorder feeds arbitrary bytes to the columnar trace
// decoder, which reads blobs from disk and from peers. It must never
// panic; it may allocate no more than a constant factor of the bytes the
// blob actually holds, whatever sample counts it claims; and a blob it
// accepts must re-encode to the same bytes, render the same CSV through
// WriteCSV/WriteWindowCSV as through the reference renderer, and window
// every series (NaN values included) exactly as the brute-force
// refWindow does.
func FuzzDecodeRecorder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		rec, err := DecodeRecorder(data)
		metrics.Read(allocs)
		// Columns cost 16 bytes per sample the blob carries; the rest is
		// per-series bookkeeping, and every series costs ≥16 blob bytes.
		if alloc, limit := allocs[0].Value.Uint64()-before, uint64(64*len(data)+1<<20); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if back := EncodeRecorder(rec); !bytes.Equal(back, data) {
			t.Fatalf("accepted blob re-encodes to different bytes:\n in %x\nout %x", data, back)
		}

		var got, want bytes.Buffer
		if err := rec.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCSV(rec, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV differs from reference\n--- want\n%s\n--- got\n%s", want.Bytes(), got.Bytes())
		}

		from, to, ok := rec.TimeRange()
		if !ok || !(to > from) || to-from > 1e300 {
			return
		}
		got.Reset()
		want.Reset()
		if err := rec.WriteWindowCSV(&got, from, to, 16); err != nil {
			t.Fatal(err)
		}
		if err := refWriteWindowCSV(rec, &want, from, to, 16); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteWindowCSV differs from reference\n--- want\n%s\n--- got\n%s", want.Bytes(), got.Bytes())
		}
		for _, name := range rec.order {
			s := rec.series[name]
			if w, ref := s.Window(from, to, 16), refWindow(s, from, to, 16); !sameBuckets(w, ref) {
				t.Fatalf("series %q: Window differs from refWindow\n got %+v\nwant %+v", name, w, ref)
			}
		}
	})
}
