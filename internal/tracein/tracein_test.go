package tracein

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustGen(t *testing.T, spec GenSpec) *Trace {
	t.Helper()
	tr, err := GenerateTrace(spec)
	if err != nil {
		t.Fatalf("GenerateTrace(%+v): %v", spec, err)
	}
	return tr
}

// image returns what a trace writer (tr.WriteBinaryTo, tr.WriteCSVTo) emits:
// the trace's canonical image in that format.
func image(write func(io.Writer) error) []byte {
	var b bytes.Buffer
	write(&b) // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}

func recordsOf(t *testing.T, tr *Trace) []Record {
	t.Helper()
	out := make([]Record, tr.Len())
	for i := range out {
		out[i] = tr.Record(i)
	}
	return out
}

func TestBinaryRoundTripViaFile(t *testing.T) {
	for _, kind := range []Kind{KindMem, KindKV} {
		for _, gen := range []Gen{GenZipf, GenScan, GenPhase, GenMixed} {
			t.Run(kind.String()+"/"+string(gen), func(t *testing.T) {
				spec := GenSpec{Kind: kind, Gen: gen, Records: 500, Apps: 3, Keys: 64, Seed: 9}
				tr := mustGen(t, spec)
				path := filepath.Join(t.TempDir(), "t.trace")
				if err := tr.WriteFile(path); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
				got, err := Open(path)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer got.Close()
				if got.Kind() != kind || got.Apps() != 3 || got.Len() != 500 {
					t.Fatalf("reloaded kind/apps/len = %v/%d/%d", got.Kind(), got.Apps(), got.Len())
				}
				want, have := recordsOf(t, tr), recordsOf(t, got)
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, want[i], have[i])
					}
				}
				// The reloaded trace re-encodes to the identical bytes.
				onDisk, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(image(got.WriteBinaryTo), onDisk) {
					t.Fatal("binary image of reloaded trace differs from the file image")
				}
			})
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindMem, KindKV} {
		spec := GenSpec{Kind: kind, Gen: GenMixed, Records: 200, Apps: 2, Keys: 32, Seed: 4}
		tr := mustGen(t, spec)
		path := filepath.Join(t.TempDir(), "t.csv")
		if err := tr.WriteFile(path); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := Open(path)
		if err != nil {
			t.Fatalf("Open CSV: %v", err)
		}
		want, have := recordsOf(t, tr), recordsOf(t, got)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s record %d CSV round-trip mismatch: %+v vs %+v", kind, i, want[i], have[i])
			}
		}
		// CSV is canonical too: re-encoding reproduces the file bytes.
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image(got.WriteCSVTo), onDisk) {
			t.Fatalf("%s CSV image of reloaded trace differs from the file image", kind)
		}
	}
}

func TestOpenUsesMmapFastPath(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("no mmap fast path on this platform")
	}
	tr := mustGen(t, GenSpec{Kind: KindMem, Gen: GenZipf, Records: 100, Seed: 1})
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mapped() {
		t.Fatal("binary trace did not take the mmap fast path")
	}
	// A stream built over the mapped image replays the recorded addresses.
	ts, err := got.MemStream(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Len(); i++ {
		if want, have := got.Record(i).Key, ts.Next(); want != have {
			t.Fatalf("mapped replay diverges at %d: %d vs %d", i, want, have)
		}
	}
	if err := got.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got.Mapped() {
		t.Fatal("Mapped still true after Close")
	}
}

func TestMemStreamMultiAppExtractsColumns(t *testing.T) {
	tr := mustGen(t, GenSpec{Kind: KindMem, Gen: GenScan, Records: 90, Apps: 3, Keys: 16, Seed: 2})
	for app := 0; app < 3; app++ {
		ts, err := tr.MemStream(app)
		if err != nil {
			t.Fatalf("MemStream(%d): %v", app, err)
		}
		if ts.Len() != 30 {
			t.Fatalf("app %d column has %d addresses, want 30", app, ts.Len())
		}
		var want []uint64
		for i := 0; i < tr.Len(); i++ {
			if r := tr.Record(i); int(r.App) == app {
				want = append(want, r.Key)
			}
		}
		for i, w := range want {
			if got := ts.Next(); got != w {
				t.Fatalf("app %d replay diverges at %d: %d vs %d", app, i, got, w)
			}
		}
	}
	if _, err := tr.MemStream(3); err == nil {
		t.Fatal("out-of-range app column accepted")
	}
	if _, err := tr.MemStream(-1); err == nil {
		t.Fatal("negative app column accepted")
	}
}

func TestMemStreamRejectsKVTrace(t *testing.T) {
	tr := mustGen(t, GenSpec{Kind: KindKV, Gen: GenZipf, Records: 10, Seed: 3})
	if _, err := tr.MemStream(0); err == nil || !strings.Contains(err.Error(), "mem trace") {
		t.Fatalf("kv trace accepted as address stream (err=%v)", err)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	spec := GenSpec{Kind: KindKV, Gen: GenMixed, Records: 300, Apps: 2, Keys: 50, Seed: 11}
	a := mustGen(t, spec)
	b := mustGen(t, spec)
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			t.Fatalf("same spec diverges at record %d", i)
		}
	}
	spec.Seed = 12
	c := mustGen(t, spec)
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != c.Record(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestMemGeneratorKeepsAppSlabsDisjoint(t *testing.T) {
	tr := mustGen(t, GenSpec{Kind: KindMem, Gen: GenZipf, Records: 200, Apps: 2, Keys: 64, Seed: 5})
	for i := 0; i < tr.Len(); i++ {
		r := tr.Record(i)
		if slab := r.Key >> 44; slab != uint64(r.App)+1 {
			t.Fatalf("record %d: app %d address %#x lands in slab %d", i, r.App, r.Key, slab)
		}
	}
}

func TestParseErrorsAreActionable(t *testing.T) {
	dir := t.TempDir()
	tr := mustGen(t, GenSpec{Kind: KindMem, Gen: GenZipf, Records: 50, Seed: 1})
	good := image(tr.WriteBinaryTo)

	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", nil, "a trace header needs"},
		{"short header", good[:10], "a trace header needs"},
		{"bad magic", append([]byte("NOPE"), good[4:]...), "not a trace"},
		{"bad version", func() []byte { b := bytes.Clone(good); b[4] = 9; return b }(), "unsupported version"},
		{"bad kind", func() []byte { b := bytes.Clone(good); b[5] = 7; return b }(), "unknown trace kind"},
		{"reserved nonzero", func() []byte { b := bytes.Clone(good); b[6] = 1; return b }(), "reserved"},
		{"truncated", good[:len(good)-8], "truncated or has trailing garbage"},
		{"trailing garbage", append(bytes.Clone(good), 0), "truncated or has trailing garbage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open(%s) error = %v, want substring %q", tc.name, err, tc.want)
			}
		})
	}

	if _, err := Open(filepath.Join(dir, "does-not-exist.trace")); err == nil {
		t.Fatal("missing file accepted")
	}

	// A record-level corruption reports the record index and byte offset.
	bad := bytes.Clone(good)
	bad[headerBytes+2*recordBytes+8] = 0xff // record 2's meta word: op garbage
	path := filepath.Join(dir, "bad-record.trace")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("corrupt record error %v is not a *ParseError", err)
	}
	if pe.Record != 2 || pe.Offset != headerBytes+2*recordBytes || pe.Line {
		t.Fatalf("ParseError location = record %d offset %d line=%v, want record 2 offset %d",
			pe.Record, pe.Offset, pe.Line, headerBytes+2*recordBytes)
	}
}

func TestCSVParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "empty input"},
		{"bad header", "#ubiktrace,version=1,kind=mem\n", "bad header"},
		{"bad version", "#ubiktrace,version=2,kind=mem,apps=1\n", "unsupported"},
		{"bad kind", "#ubiktrace,version=1,kind=x,apps=1\n", "unknown trace kind"},
		{"no records", "#ubiktrace,version=1,kind=mem,apps=1\n", "zero records"},
		{"field count", "#ubiktrace,version=1,kind=mem,apps=1\n1,0\n", "2 fields"},
		{"bad number", "#ubiktrace,version=1,kind=mem,apps=1\n1,zero,5\n", "not a number"},
		{"leading zero", "#ubiktrace,version=1,kind=mem,apps=1\n01,0,5\n", "leading zero"},
		{"app range", "#ubiktrace,version=1,kind=mem,apps=1\n1,1,5\n", "out of range"},
		{"bad op", "#ubiktrace,version=1,kind=kv,apps=1\n1,0,del,5,0\n", `op "del"`},
		{"get with size", "#ubiktrace,version=1,kind=kv,apps=1\n1,0,get,5,8\n", "sizes apply to sets"},
		{"set zero size", "#ubiktrace,version=1,kind=kv,apps=1\n1,0,set,5,0\n", "zero size"},
		{"cycle backwards", "#ubiktrace,version=1,kind=mem,apps=1\n9,0,5\n3,0,6\n", "goes backwards"},
		{"missing newline", "#ubiktrace,version=1,kind=mem,apps=1\n1,0,5", "missing its newline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode("test.csv", []byte(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error = %v, want substring %q", err, tc.want)
			}
			var pe *ParseError
			if errors.As(err, &pe) && !pe.Line {
				t.Fatalf("CSV ParseError not line-addressed: %v", err)
			}
		})
	}

	// The reported line number points at the failing record.
	_, err := Decode("test.csv", []byte("#ubiktrace,version=1,kind=mem,apps=1\n1,0,5\n2,0,six\n"))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Offset != 3 || pe.Record != 1 {
		t.Fatalf("ParseError = %+v, want record 1 at line 3 (err=%v)", pe, err)
	}
}

func TestGenSpecValidation(t *testing.T) {
	base := GenSpec{Kind: KindMem, Gen: GenZipf, Records: 10}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []GenSpec{
		{Gen: GenZipf, Records: 10},                                   // no kind
		{Kind: KindMem, Gen: "walk", Records: 10},                     // bad gen
		{Kind: KindMem, Gen: GenZipf},                                 // no records
		{Kind: KindMem, Gen: GenZipf, Records: 10, ZipfS: 0.5},        // skew <= 1
		{Kind: KindKV, Gen: GenZipf, Records: 10, SetFrac: 1.5},       // bad frac
		{Kind: KindMem, Gen: GenZipf, Records: 2, Apps: 5},            // apps > records
		{Kind: KindKV, Gen: GenZipf, Records: 10, ValueSize: 1 << 25}, // size > 24-bit
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("invalid spec %d accepted: %+v", i, s)
		}
	}
}
