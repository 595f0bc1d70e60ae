package tracein

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteBinaryTo streams the trace in the canonical binary format through a
// buffered writer.
func (t *Trace) WriteBinaryTo(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [headerBytes]byte
	copy(hdr[:4], Magic)
	hdr[4] = Version
	hdr[5] = byte(t.kind)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(t.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(t.apps))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [recordBytes]byte
	for i := 0; i < t.n; i++ {
		w := t.words[i*recordWords:]
		binary.LittleEndian.PutUint64(buf[0:8], w[0])
		binary.LittleEndian.PutUint64(buf[8:16], w[1])
		binary.LittleEndian.PutUint64(buf[16:24], w[2])
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSVTo streams the trace in the canonical CSV format through a buffered
// writer.
func (t *Trace) WriteCSVTo(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%s,version=%d,kind=%s,apps=%d\n", csvMagic, Version, t.kind, t.apps); err != nil {
		return err
	}
	var sb []byte
	for i := 0; i < t.n; i++ {
		r := t.Record(i)
		sb = sb[:0]
		sb = strconv.AppendUint(sb, r.Cycle, 10)
		sb = append(sb, ',')
		sb = strconv.AppendUint(sb, uint64(r.App), 10)
		sb = append(sb, ',')
		if t.kind == KindMem {
			sb = strconv.AppendUint(sb, r.Key, 10)
		} else {
			sb = append(sb, r.Op.String()...)
			sb = append(sb, ',')
			sb = strconv.AppendUint(sb, r.Key, 10)
			sb = append(sb, ',')
			sb = strconv.AppendUint(sb, uint64(r.Size), 10)
		}
		sb = append(sb, '\n')
		if _, err := bw.Write(sb); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to path, choosing the format by extension:
// ".csv" writes CSV, anything else the binary format.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tracein: %w", err)
	}
	if strings.HasSuffix(path, ".csv") {
		err = t.WriteCSVTo(f)
	} else {
		err = t.WriteBinaryTo(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("tracein: write %s: %w", path, err)
	}
	return nil
}
