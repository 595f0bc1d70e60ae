package tracein

import (
	"bytes"
	"testing"
)

// FuzzParseTrace pins the parser's safety and canonicality properties:
// any input either fails with a located ParseError or yields a trace whose
// every record validates, and every accepted input re-encodes to a fixed
// point — byte-identical for the binary format (which is fully canonical),
// and stable-under-reparse for CSV (the canonical re-encoding of an accepted
// CSV input is itself a byte-level fixed point).
func FuzzParseTrace(f *testing.F) {
	seed := func(spec GenSpec, csv bool) {
		tr, err := GenerateTrace(spec)
		if err != nil {
			f.Fatalf("seed GenerateTrace: %v", err)
		}
		if csv {
			f.Add(image(tr.WriteCSVTo))
		} else {
			f.Add(image(tr.WriteBinaryTo))
		}
	}
	seed(GenSpec{Kind: KindMem, Gen: GenZipf, Records: 20, Apps: 2, Keys: 16, Seed: 1}, false)
	seed(GenSpec{Kind: KindKV, Gen: GenMixed, Records: 20, Apps: 3, Keys: 16, Seed: 2}, false)
	seed(GenSpec{Kind: KindMem, Gen: GenScan, Records: 10, Keys: 8, Seed: 3}, true)
	seed(GenSpec{Kind: KindKV, Gen: GenPhase, Records: 10, Keys: 8, Seed: 4}, true)
	f.Add([]byte("UBTR garbage"))
	f.Add([]byte("#ubiktrace,version=1,kind=mem,apps=1\n1,0,5\n"))
	f.Add([]byte("#ubiktrace,version=1,kind=kv,apps=1\n1,0,set,5,99\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode("fuzz", data)
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		// Accepted implies valid: every record passes the kind/app checks and
		// cycles never go backwards.
		var prev uint64
		for i := 0; i < tr.Len(); i++ {
			r := tr.Record(i)
			if err := r.Validate(tr.Kind(), tr.Apps()); err != nil {
				t.Fatalf("accepted trace holds invalid record %d: %v", i, err)
			}
			if r.Cycle < prev {
				t.Fatalf("accepted trace has backwards cycle at record %d", i)
			}
			prev = r.Cycle
		}

		if bytes.HasPrefix(data, []byte(Magic)) {
			// Binary is fully canonical: re-encoding reproduces the input.
			if enc := image(tr.WriteBinaryTo); !bytes.Equal(enc, data) {
				t.Fatalf("binary re-encode is not the identity:\n in: %x\nout: %x", data, enc)
			}
			return
		}
		// CSV: the canonical re-encoding parses back to the same records and
		// is itself a byte-level fixed point.
		enc := image(tr.WriteCSVTo)
		tr2, err := Decode("fuzz-reencode", enc)
		if err != nil {
			t.Fatalf("canonical CSV re-encoding rejected: %v\n%s", err, enc)
		}
		if tr2.Len() != tr.Len() || tr2.Kind() != tr.Kind() || tr2.Apps() != tr.Apps() {
			t.Fatalf("re-encoded CSV changed shape: %d/%v/%d vs %d/%v/%d",
				tr2.Len(), tr2.Kind(), tr2.Apps(), tr.Len(), tr.Kind(), tr.Apps())
		}
		for i := 0; i < tr.Len(); i++ {
			if tr.Record(i) != tr2.Record(i) {
				t.Fatalf("re-encoded CSV changed record %d: %+v vs %+v", i, tr.Record(i), tr2.Record(i))
			}
		}
		if enc2 := image(tr2.WriteCSVTo); !bytes.Equal(enc2, enc) {
			t.Fatalf("CSV canonical form is not a fixed point:\n in: %s\nout: %s", enc, enc2)
		}
	})
}
