package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"tcq/internal/tuple"
)

// File format (little endian):
//
//	magic   [4]byte  "TCQR"
//	version uint32   1
//	blockSz uint32
//	ncols   uint32
//	cols    ncols × { type uint8, size uint32, nameLen uint32, name []byte }
//	ntuples uint64
//	tuples  ntuples × Schema.TupleSize() bytes
const (
	fileMagic   = "TCQR"
	fileVersion = 1
)

// Save writes the relation to w in the tcq binary format. File-backed
// relations are copied block by block (uncharged). Concurrent appends
// are excluded for the duration of the save.
func (r *Relation) Save(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeU32(fileVersion)
	writeU32(uint32(r.store.blockSize))
	writeU32(uint32(r.schema.NumCols()))
	for i := 0; i < r.schema.NumCols(); i++ {
		c := r.schema.Col(i)
		bw.WriteByte(byte(c.Type))
		writeU32(uint32(c.Size))
		writeU32(uint32(len(c.Name)))
		bw.WriteString(c.Name)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(r.numTuples)); err != nil {
		return err
	}
	buf := make([]byte, 0, r.schema.TupleSize())
	for i := 0; i < r.numBlocksLocked(); i++ {
		src, lo, hi, err := r.blockLocked(i)
		if err != nil {
			return err
		}
		for _, t := range src.Slice(lo, hi).Rows() {
			buf = t.Encode(r.schema, buf[:0])
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveFile writes the relation to the named host file.
func (r *Relation) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingReader tracks bytes consumed, so the header size (and hence
// the tuple-data offset) is known after parsing.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readHeader parses the tcq relation header, returning the schema, the
// tuple count and the byte offset at which tuple data begins.
func readHeader(rd io.Reader, name string) (*tuple.Schema, uint64, int64, error) {
	cr := &countingReader{r: rd}
	br := bufio.NewReader(cr)
	consumed := func() int64 { return cr.n - int64(br.Buffered()) }
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, 0, fmt.Errorf("storage: load %s: %w", name, err)
	}
	if string(magic) != fileMagic {
		return nil, 0, 0, fmt.Errorf("storage: load %s: bad magic %q", name, magic)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	ver, err := readU32()
	if err != nil {
		return nil, 0, 0, err
	}
	if ver != fileVersion {
		return nil, 0, 0, fmt.Errorf("storage: load %s: unsupported version %d", name, ver)
	}
	if _, err := readU32(); err != nil { // stored block size; informational
		return nil, 0, 0, err
	}
	ncols, err := readU32()
	if err != nil {
		return nil, 0, 0, err
	}
	if ncols == 0 || ncols > 1<<16 {
		return nil, 0, 0, fmt.Errorf("storage: load %s: implausible column count %d", name, ncols)
	}
	cols := make([]tuple.Column, ncols)
	for i := range cols {
		tb, err := br.ReadByte()
		if err != nil {
			return nil, 0, 0, err
		}
		size, err := readU32()
		if err != nil {
			return nil, 0, 0, err
		}
		nameLen, err := readU32()
		if err != nil {
			return nil, 0, 0, err
		}
		if nameLen > 1<<16 {
			return nil, 0, 0, fmt.Errorf("storage: load %s: implausible name length %d", name, nameLen)
		}
		nb := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nb); err != nil {
			return nil, 0, 0, err
		}
		cols[i] = tuple.Column{Name: string(nb), Type: tuple.ColType(tb), Size: int(size)}
	}
	schema, err := tuple.NewSchema(cols...)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("storage: load %s: %w", name, err)
	}
	var ntuples uint64
	if err := binary.Read(br, binary.LittleEndian, &ntuples); err != nil {
		return nil, 0, 0, err
	}
	return schema, ntuples, consumed(), nil
}

// LoadRelation reads a relation in the tcq binary format from rd and
// registers it in the store under the given name (fully in memory; see
// OpenRelationFile for on-demand access).
func (s *Store) LoadRelation(name string, rd io.Reader) (*Relation, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("storage: load %s: %w", name, err)
	}
	schema, ntuples, offset, err := readHeader(bytes.NewReader(data), name)
	if err != nil {
		return nil, err
	}
	rel, err := s.CreateRelation(name, schema)
	if err != nil {
		return nil, err
	}
	rest := data[offset:]
	ts := schema.TupleSize()
	for i := uint64(0); i < ntuples; i++ {
		if len(rest) < ts {
			s.DropRelation(name)
			return nil, fmt.Errorf("storage: load %s: tuple %d: unexpected EOF", name, i)
		}
		t, remaining, err := tuple.Decode(schema, rest)
		if err != nil {
			s.DropRelation(name)
			return nil, err
		}
		rest = remaining
		if err := rel.Append(t); err != nil {
			s.DropRelation(name)
			return nil, err
		}
	}
	return rel, nil
}

// filePager reads a relation's blocks on demand from an open file.
type filePager struct {
	f       *os.File
	schema  *tuple.Schema
	offset  int64 // byte offset of tuple data
	ntuples int64
	bf      int // tuples per block
}

func (p *filePager) readBlock(i int) (*tuple.Batch, error) {
	start := int64(i) * int64(p.bf)
	count := min(int64(p.bf), p.ntuples-start)
	if count <= 0 {
		return nil, fmt.Errorf("storage: block %d beyond end", i)
	}
	ts := int64(p.schema.TupleSize())
	buf := make([]byte, count*ts)
	if _, err := p.f.ReadAt(buf, p.offset+start*ts); err != nil {
		return nil, err
	}
	out := tuple.NewBatchHeap(p.schema, int(count))
	rest := buf
	for j := int64(0); j < count; j++ {
		t, remaining, err := tuple.Decode(p.schema, rest)
		if err != nil {
			return nil, err
		}
		rest = remaining
		if err := out.AppendRow(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OpenRelationFile registers a relation backed by the named tcq file,
// reading blocks on demand instead of loading every tuple into memory —
// how a production deployment opens a large relation. The file must
// outlive the store session; Close releases it.
func (s *Store) OpenRelationFile(name, path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	schema, ntuples, offset, err := readHeader(f, name)
	if err != nil {
		f.Close()
		return nil, err
	}
	rel, err := s.CreateRelation(name, schema)
	if err != nil {
		f.Close()
		return nil, err
	}
	rel.mu.Lock()
	rel.numTuples = int64(ntuples)
	rel.backing = &filePager{
		f:       f,
		schema:  schema,
		offset:  offset,
		ntuples: int64(ntuples),
		bf:      rel.blockingFactor,
	}
	rel.mu.Unlock()
	return rel, nil
}

// Close releases a file-backed relation's file handle (no-op for
// in-memory relations).
func (r *Relation) Close() error {
	r.mu.RLock()
	p := r.backing
	r.mu.RUnlock()
	if p != nil {
		return p.f.Close()
	}
	return nil
}

// LoadRelationFile reads a relation from the named host file.
func (s *Store) LoadRelationFile(name, path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return s.LoadRelation(name, f)
}
