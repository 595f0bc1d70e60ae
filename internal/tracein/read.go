package tracein

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/workload"
)

// hostLittleEndian reports whether the host lays out uint64s the way the
// binary format does. The mmap fast path reinterprets the file image as
// []uint64 in place, which is only correct on little-endian hosts; big-endian
// hosts take the decoding fallback.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// Trace is a loaded trace: a validated header plus records packed as three
// uint64 words each. The words are immutable after load; when the trace came
// through the mmap fast path they alias the mapped file image directly, so
// streams replay straight out of the page cache with zero copies.
type Trace struct {
	kind Kind
	apps int
	n    int
	// words holds n packed records: words[3i]=cycle, words[3i+1]=meta,
	// words[3i+2]=key. Immutable after load.
	words  []uint64
	munmap func() error
}

// Kind returns what the trace records.
func (t *Trace) Kind() Kind { return t.kind }

// Len returns the number of records.
func (t *Trace) Len() int { return t.n }

// Apps returns the number of app slots (mem) or tenants (kv) the records
// index into.
func (t *Trace) Apps() int { return t.apps }

// Record returns record i.
func (t *Trace) Record(i int) Record {
	w := t.words[i*recordWords:]
	app, op, size := unpackMeta(w[1])
	return Record{Cycle: w[0], App: app, Op: op, Size: size, Key: w[2]}
}

// Mapped reports whether the records alias an mmap'd file image.
func (t *Trace) Mapped() bool { return t.munmap != nil }

// Close releases the mapped file image, if any. Close only after every
// stream built over the trace is done: single-app mem streams (and all their
// clones) read the mapped words directly.
func (t *Trace) Close() error {
	if t.munmap == nil {
		return nil
	}
	m := t.munmap
	t.munmap = nil
	t.words = nil
	return m()
}

// MemStream builds a workload.TraceStream replaying the given app column of a
// mem trace. For a single-app trace the stream is a strided view over the
// packed records themselves — zero copies, and clones share the mmap'd image;
// multi-app traces extract the app's addresses once at build time (the
// extracted slice is then shared by every clone the same way).
func (t *Trace) MemStream(app int) (*workload.TraceStream, error) {
	if t.kind != KindMem {
		return nil, fmt.Errorf("tracein: a %s trace cannot drive a simulator address stream; generate or record a mem trace", t.kind)
	}
	if app < 0 || app >= t.apps {
		return nil, fmt.Errorf("tracein: trace app %d out of range (trace has %d apps, columns 0..%d)", app, t.apps, t.apps-1)
	}
	if t.apps == 1 {
		return workload.NewTraceStream(t.words, recordWords, 2, t.n, t.footprint(0))
	}
	distinct := make(map[uint64]struct{})
	var addrs []uint64
	for i := 0; i < t.n; i++ {
		w := t.words[i*recordWords:]
		if a, _, _ := unpackMeta(w[1]); int(a) == app {
			addrs = append(addrs, w[2])
			distinct[w[2]] = struct{}{}
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("tracein: trace app %d has no records (declared apps %d; pick a populated column)", app, t.apps)
	}
	return workload.NewTraceStreamAddrs(addrs, uint64(len(distinct)))
}

// footprint counts distinct keys for one app column (single-app fast path
// passes 0 and counts every record).
func (t *Trace) footprint(app int) uint64 {
	distinct := make(map[uint64]struct{})
	for i := 0; i < t.n; i++ {
		w := t.words[i*recordWords:]
		if a, _, _ := unpackMeta(w[1]); t.apps == 1 || int(a) == app {
			distinct[w[2]] = struct{}{}
		}
	}
	return uint64(len(distinct))
}

// FromRecords builds an in-memory trace from already-materialised records,
// validating them exactly like a file parse would. Generators and tests use
// it to build traces without touching the filesystem.
func FromRecords(kind Kind, apps int, recs []Record) (*Trace, error) {
	h := Header{Kind: kind, Records: uint64(len(recs)), Apps: uint64(apps)}
	if err := h.validate(); err != nil {
		return nil, headerErr("<records>", 0, false, err)
	}
	words := make([]uint64, len(recs)*recordWords)
	var prevCycle uint64
	for i, r := range recs {
		if err := r.Validate(kind, apps); err != nil {
			return nil, recordErr("<records>", i, 0, false, err)
		}
		if r.Cycle < prevCycle {
			return nil, recordErr("<records>", i, 0, false,
				fmt.Errorf("cycle %d goes backwards (previous record at %d)", r.Cycle, prevCycle))
		}
		prevCycle = r.Cycle
		words[i*recordWords] = r.Cycle
		words[i*recordWords+1] = packMeta(r)
		words[i*recordWords+2] = r.Key
	}
	return &Trace{kind: kind, apps: apps, n: len(recs), words: words}, nil
}

// validateWords checks every packed record of a freshly loaded trace: field
// validity against the header and cycle monotonicity. loc maps a record index
// to its position for error messages.
func validateWords(name string, h Header, words []uint64, loc func(i int) (int64, bool)) error {
	var prevCycle uint64
	n := int(h.Records)
	for i := 0; i < n; i++ {
		w := words[i*recordWords:]
		app, op, size := unpackMeta(w[1])
		r := Record{Cycle: w[0], App: app, Op: op, Size: size, Key: w[2]}
		if err := r.Validate(h.Kind, int(h.Apps)); err != nil {
			off, line := loc(i)
			return recordErr(name, i, off, line, err)
		}
		if r.Cycle < prevCycle {
			off, line := loc(i)
			return recordErr(name, i, off, line,
				fmt.Errorf("cycle %d goes backwards (previous record at %d)", r.Cycle, prevCycle))
		}
		prevCycle = r.Cycle
	}
	return nil
}

func binaryRecordOffset(i int) (int64, bool) {
	return int64(headerBytes + i*recordBytes), false
}

// parseBinaryHeader decodes and checks the fixed 24-byte header. Reserved
// bytes must be zero: the format stays fully canonical, so re-encoding a
// parsed trace reproduces the input byte for byte.
func parseBinaryHeader(name string, hdr []byte) (Header, error) {
	if len(hdr) < headerBytes {
		return Header{}, headerErr(name, int64(len(hdr)), false,
			fmt.Errorf("file is %d bytes, a trace header needs %d", len(hdr), headerBytes))
	}
	if string(hdr[:4]) != Magic {
		return Header{}, headerErr(name, 0, false, fmt.Errorf("bad magic %q (want %q)", hdr[:4], Magic))
	}
	if hdr[4] != Version {
		return Header{}, headerErr(name, 4, false, fmt.Errorf("unsupported version %d (want %d)", hdr[4], Version))
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Header{}, headerErr(name, 6, false, fmt.Errorf("reserved header bytes are not zero"))
	}
	h := Header{
		Kind:    Kind(hdr[5]),
		Records: binary.LittleEndian.Uint64(hdr[8:16]),
		Apps:    binary.LittleEndian.Uint64(hdr[16:24]),
	}
	if err := h.validate(); err != nil {
		return Header{}, headerErr(name, 4, false, err)
	}
	return h, nil
}

// binarySize returns the exact file size h promises, or an error if it would
// overflow.
func binarySize(name string, h Header) (int64, error) {
	const maxRecords = (int64(1)<<62 - headerBytes) / recordBytes
	if h.Records > uint64(maxRecords) {
		return 0, headerErr(name, 8, false, fmt.Errorf("record count %d is implausibly large", h.Records))
	}
	return headerBytes + int64(h.Records)*recordBytes, nil
}

// Open loads a trace file. Binary traces take the mmap fast path on
// little-endian unix hosts — the records are validated and then replayed in
// place, shared by every stream — and fall back to a buffered
// decode elsewhere. CSV traces stream through a bufio reader. All parse
// errors carry the file name and the failing record's offset.
func Open(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracein: %w", err)
	}
	defer f.Close()

	sniff := make([]byte, headerBytes)
	nr, err := io.ReadFull(f, sniff)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		sniff = sniff[:nr]
		if !bytes.HasPrefix(sniff, []byte(Magic)) && looksLikeCSV(sniff) {
			// A CSV trace shorter than a binary header is still parseable.
			return openCSV(path, f, sniff)
		}
		return nil, headerErr(path, int64(nr), false,
			fmt.Errorf("file is %d bytes, a trace header needs %d", nr, headerBytes))
	}
	if err != nil {
		return nil, fmt.Errorf("tracein: %s: %w", path, err)
	}

	if !bytes.HasPrefix(sniff, []byte(Magic)) {
		if looksLikeCSV(sniff) {
			return openCSV(path, f, sniff)
		}
		return nil, headerErr(path, 0, false,
			fmt.Errorf("not a trace: want %q binary magic or a %q CSV header", Magic, csvMagic))
	}

	h, err := parseBinaryHeader(path, sniff)
	if err != nil {
		return nil, err
	}
	want, err := binarySize(path, h)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tracein: %s: %w", path, err)
	}
	if st.Size() != want {
		return nil, headerErr(path, 8, false,
			fmt.Errorf("file is %d bytes but the header promises %d records (%d bytes); the trace is truncated or has trailing garbage", st.Size(), h.Records, want))
	}

	if mmapSupported && hostLittleEndian {
		data, munmap, merr := mapFile(f, want)
		if merr == nil {
			words := unsafe.Slice((*uint64)(unsafe.Pointer(&data[headerBytes])), int(h.Records)*recordWords)
			if err := validateWords(path, h, words, binaryRecordOffset); err != nil {
				munmap()
				return nil, err
			}
			return &Trace{kind: h.Kind, apps: int(h.Apps), n: int(h.Records), words: words, munmap: munmap}, nil
		}
		// fall through to the buffered decode
	}

	words, err := decodeBinaryRecords(path, h, bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	return &Trace{kind: h.Kind, apps: int(h.Apps), n: int(h.Records), words: words}, nil
}

// decodeBinaryRecords reads and unpacks h.Records records from r (positioned
// just past the header) into heap words, then validates them.
func decodeBinaryRecords(name string, h Header, r io.Reader) ([]uint64, error) {
	n := int(h.Records)
	words := make([]uint64, n*recordWords)
	var buf [recordBytes]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			off, _ := binaryRecordOffset(i)
			return nil, recordErr(name, i, off, false, fmt.Errorf("truncated record: %w", err))
		}
		words[i*recordWords] = binary.LittleEndian.Uint64(buf[0:8])
		words[i*recordWords+1] = binary.LittleEndian.Uint64(buf[8:16])
		words[i*recordWords+2] = binary.LittleEndian.Uint64(buf[16:24])
	}
	if err := validateWords(name, h, words, binaryRecordOffset); err != nil {
		return nil, err
	}
	return words, nil
}

// Decode parses a trace from an in-memory byte image, auto-detecting binary
// vs CSV exactly like Open. name labels parse errors.
func Decode(name string, data []byte) (*Trace, error) {
	if bytes.HasPrefix(data, []byte(Magic)) {
		h, err := parseBinaryHeader(name, data)
		if err != nil {
			return nil, err
		}
		want, err := binarySize(name, h)
		if err != nil {
			return nil, err
		}
		if int64(len(data)) != want {
			return nil, headerErr(name, 8, false,
				fmt.Errorf("input is %d bytes but the header promises %d records (%d bytes); the trace is truncated or has trailing garbage", len(data), h.Records, want))
		}
		words, err := decodeBinaryRecords(name, h, bytes.NewReader(data[headerBytes:]))
		if err != nil {
			return nil, err
		}
		return &Trace{kind: h.Kind, apps: int(h.Apps), n: int(h.Records), words: words}, nil
	}
	return parseCSV(name, bufio.NewReader(bytes.NewReader(data)))
}

// CSV format: a strict header line followed by one record per line, every
// line newline-terminated. Numbers are canonical base-10 (no leading zeros,
// signs or blanks), so the CSV form is as canonical as the binary one.
const csvMagic = "#ubiktrace"

func looksLikeCSV(b []byte) bool {
	return bytes.HasPrefix(b, []byte(csvMagic))
}

// openCSV restarts the reader from the top of the file (sniff bytes were
// already consumed) and streams the CSV parse.
func openCSV(path string, f *os.File, sniff []byte) (*Trace, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("tracein: %s: %w", path, err)
	}
	return parseCSV(path, bufio.NewReaderSize(f, 1<<20))
}

// parseUintField parses a strictly canonical base-10 number: ASCII digits
// only, no sign, no leading zeros (so re-encoding reproduces the input).
func parseUintField(s, what string) (uint64, error) {
	if len(s) > 1 && s[0] == '0' {
		return 0, fmt.Errorf("%s %q has a leading zero", what, s)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q is not a number", what, s)
	}
	return v, nil
}

func parseCSV(name string, r *bufio.Reader) (*Trace, error) {
	readLine := func(lineNo int64) (string, error) {
		s, err := r.ReadString('\n')
		if err == io.EOF {
			if s == "" {
				return "", io.EOF
			}
			return "", recordErr(name, int(lineNo-2), lineNo, true,
				fmt.Errorf("last line is missing its newline"))
		}
		if err != nil {
			return "", fmt.Errorf("tracein: %s: %w", name, err)
		}
		return s[:len(s)-1], nil
	}

	hdrLine, err := readLine(1)
	if err == io.EOF {
		return nil, headerErr(name, 1, true, fmt.Errorf("empty input"))
	}
	if err != nil {
		return nil, err
	}
	fields := strings.Split(hdrLine, ",")
	if len(fields) != 4 || fields[0] != csvMagic {
		return nil, headerErr(name, 1, true,
			fmt.Errorf("bad header %q (want %q)", hdrLine, csvMagic+",version=1,kind=<mem|kv>,apps=<n>"))
	}
	if fields[1] != fmt.Sprintf("version=%d", Version) {
		return nil, headerErr(name, 1, true, fmt.Errorf("unsupported %q (want version=%d)", fields[1], Version))
	}
	kindName, ok := strings.CutPrefix(fields[2], "kind=")
	if !ok {
		return nil, headerErr(name, 1, true, fmt.Errorf("bad field %q (want kind=<mem|kv>)", fields[2]))
	}
	kind, err := ParseKind(kindName)
	if err != nil {
		return nil, headerErr(name, 1, true, err)
	}
	appsStr, ok := strings.CutPrefix(fields[3], "apps=")
	if !ok {
		return nil, headerErr(name, 1, true, fmt.Errorf("bad field %q (want apps=<n>)", fields[3]))
	}
	apps, err := parseUintField(appsStr, "app count")
	if err != nil {
		return nil, headerErr(name, 1, true, err)
	}

	var (
		words     []uint64
		n         int
		prevCycle uint64
	)
	wantFields := 3 // cycle,app,addr
	if kind == KindKV {
		wantFields = 5 // cycle,tenant,op,key,size
	}
	for lineNo := int64(2); ; lineNo++ {
		line, err := readLine(lineNo)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec := int(lineNo - 2)
		f := strings.Split(line, ",")
		if len(f) != wantFields {
			return nil, recordErr(name, rec, lineNo, true,
				fmt.Errorf("%d fields, a %s record has %d", len(f), kind, wantFields))
		}
		var r Record
		if r.Cycle, err = parseUintField(f[0], "cycle"); err != nil {
			return nil, recordErr(name, rec, lineNo, true, err)
		}
		app, err := parseUintField(f[1], "app")
		if err != nil {
			return nil, recordErr(name, rec, lineNo, true, err)
		}
		if app >= 1<<32 {
			return nil, recordErr(name, rec, lineNo, true, fmt.Errorf("app %d overflows the 32-bit app field", app))
		}
		r.App = uint32(app)
		if kind == KindMem {
			if r.Key, err = parseUintField(f[2], "addr"); err != nil {
				return nil, recordErr(name, rec, lineNo, true, err)
			}
		} else {
			switch f[2] {
			case "get":
				r.Op = OpGet
			case "set":
				r.Op = OpSet
			default:
				return nil, recordErr(name, rec, lineNo, true, fmt.Errorf("op %q (want get or set)", f[2]))
			}
			if r.Key, err = parseUintField(f[3], "key"); err != nil {
				return nil, recordErr(name, rec, lineNo, true, err)
			}
			size, err := parseUintField(f[4], "size")
			if err != nil {
				return nil, recordErr(name, rec, lineNo, true, err)
			}
			if size > MaxValueSize {
				return nil, recordErr(name, rec, lineNo, true,
					fmt.Errorf("kv set size %d exceeds the %d-byte format limit", size, MaxValueSize))
			}
			r.Size = uint32(size)
		}
		if err := r.Validate(kind, int(apps)); err != nil {
			return nil, recordErr(name, rec, lineNo, true, err)
		}
		if r.Cycle < prevCycle {
			return nil, recordErr(name, rec, lineNo, true,
				fmt.Errorf("cycle %d goes backwards (previous record at %d)", r.Cycle, prevCycle))
		}
		prevCycle = r.Cycle
		words = append(words, r.Cycle, packMeta(r), r.Key)
		n++
	}
	h := Header{Kind: kind, Records: uint64(n), Apps: apps}
	if err := h.validate(); err != nil {
		return nil, headerErr(name, 1, true, err)
	}
	return &Trace{kind: kind, apps: int(apps), n: n, words: words}, nil
}
