// Package checkpoint defines the wire format of incremental checkpoint
// differences and the checkpoint record (lineage) that stores and
// restores them.
//
// A Diff is the "consolidated difference" of the paper (Tan et al.,
// ICPP 2023, §2.1): a small header, compact metadata describing
// first-time occurrences and shifted duplicates, and a contiguous data
// section holding the gathered bytes of the first-time occurrences —
// exactly the object that is serialized on the GPU and shipped to host
// memory in a single transfer.
//
// A Record is the per-process checkpoint lineage (§1: "the entire
// checkpoint record"): it retains every Diff and can reconstruct the
// application buffer at any checkpoint, resolving shifted-duplicate
// references across checkpoints ("assemble the shifted duplicates from
// the corresponding checkpoint ID", §2.2).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Method identifies the de-duplication strategy that produced a Diff.
type Method uint8

const (
	// MethodFull stores the complete buffer every checkpoint.
	MethodFull Method = iota
	// MethodBasic stores a change bitmap plus changed chunks (dirty
	// chunk tracking against the same offset of the previous
	// checkpoint only).
	MethodBasic
	// MethodList stores per-chunk first-occurrence and
	// shifted-duplicate entries with no metadata compaction.
	MethodList
	// MethodTree is the paper's contribution: Merkle-tree compacted
	// region metadata.
	MethodTree
)

// String returns the method name used throughout the paper's figures.
func (m Method) String() string {
	switch m {
	case MethodFull:
		return "Full"
	case MethodBasic:
		return "Basic"
	case MethodList:
		return "List"
	case MethodTree:
		return "Tree"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Methods lists all implemented methods in the order the paper
// introduces them.
func Methods() []Method {
	return []Method{MethodFull, MethodBasic, MethodList, MethodTree}
}

// ShiftRegion describes one shifted-duplicate region: the tree node it
// covers in the current checkpoint and the (node, checkpoint) of the
// identical region recorded in the historical record of unique hashes.
type ShiftRegion struct {
	Node    uint32
	SrcNode uint32
	SrcCkpt uint32
}

// Diff is one incremental checkpoint difference.
type Diff struct {
	Method    Method
	CkptID    uint32
	DataLen   uint64
	ChunkSize uint32

	// FirstOcur lists the tree nodes of first-occurrence regions, in
	// ascending chunk order; Data holds their bytes in the same order.
	// For MethodFull it is empty and Data is the whole buffer. For
	// MethodBasic it is empty and Bitmap+Data describe changed chunks.
	FirstOcur []uint32

	// ShiftDupl lists shifted-duplicate regions (MethodList and
	// MethodTree), in ascending chunk order.
	ShiftDupl []ShiftRegion

	// Bitmap marks changed chunks for MethodBasic, one bit per chunk,
	// LSB-first within each byte.
	Bitmap []byte

	// DataCodec identifies the codec compressing the Data section
	// (0 = uncompressed). Compressing the first-time occurrences
	// inside the difference is the §5 future-work extension
	// ("combining our method with compression techniques").
	DataCodec uint8

	// RawDataLen is the uncompressed length of the data section when
	// DataCodec != 0 (equal to len(Data) otherwise).
	RawDataLen uint64

	// Data is the gathered data section (compressed when DataCodec is
	// set).
	Data []byte
}

const (
	diffMagic     = 0x50_4b_43_47 // "GCKP" little-endian
	formatVersion = 2
	headerSize    = 4 + 1 + 1 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 1 + 8 // see Encode
)

// MetadataBytes returns the size of the serialized metadata sections
// (everything except the header and the data payload). This is the
// quantity whose "explosion" the Tree method exists to prevent (§2.2).
func (d *Diff) MetadataBytes() int64 {
	return int64(4*len(d.FirstOcur) + 12*len(d.ShiftDupl) + len(d.Bitmap))
}

// TotalBytes returns the full serialized size of the diff: header,
// metadata and data. Checkpoint sizes and de-duplication ratios in the
// benchmarks are computed from this.
func (d *Diff) TotalBytes() int64 {
	return headerSize + d.MetadataBytes() + int64(len(d.Data))
}

// encodeBufPool recycles the header+metadata staging buffers of
// Encode, making steady-state encoding allocation-free. Pointers to
// slices are pooled (not slices) so Put does not itself allocate.
var encodeBufPool sync.Pool

// errMetadataTooLarge reports a Diff whose region metadata cannot be
// expressed in the format's 32-bit counts.
var errMetadataTooLarge = errors.New("checkpoint: region metadata exceeds format limits")

// Encode writes the canonical little-endian serialization of d: the
// prefix (header, region metadata, bitmap) followed by the data
// section.
//
//ckptlint:noalloc
func (d *Diff) Encode(w io.Writer) error {
	if err := d.encodePrefix(w); err != nil {
		return err
	}
	if _, err := w.Write(d.Data); err != nil {
		return fmt.Errorf("checkpoint: write data: %w", err)
	}
	return nil
}

// PrefixBytes returns the encoded length of everything before the data
// section — the split point of the block-mapped container, which
// stores the prefix verbatim and replaces the data section with block
// references.
func (d *Diff) PrefixBytes() int64 { return headerSize + d.MetadataBytes() }

// AppendPrefix appends the serialization of d up to (excluding) the
// bitmap and data sections — the header and region metadata — to buf
// and returns the extended slice. It is the zero-copy counterpart of
// encodePrefix: the streaming push path stages these bytes behind a
// frame header in a reused buffer and ships Bitmap and Data by
// reference (writev), so the full encoding AppendPrefix+Bitmap+Data
// is byte-identical to Encode's output without gathering it.
//
//ckptlint:noalloc
func (d *Diff) AppendPrefix(buf []byte) ([]byte, error) {
	if uint64(len(d.FirstOcur)) > math.MaxUint32 ||
		uint64(len(d.ShiftDupl)) > math.MaxUint32 ||
		uint64(len(d.Bitmap)) > math.MaxUint32 {
		return buf, errMetadataTooLarge
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], diffMagic)
	hdr[4] = formatVersion
	hdr[5] = uint8(d.Method)
	binary.LittleEndian.PutUint32(hdr[6:], d.CkptID)
	binary.LittleEndian.PutUint64(hdr[10:], d.DataLen)
	binary.LittleEndian.PutUint32(hdr[18:], d.ChunkSize)
	binary.LittleEndian.PutUint32(hdr[22:], uint32(len(d.FirstOcur)))
	binary.LittleEndian.PutUint32(hdr[26:], uint32(len(d.ShiftDupl)))
	binary.LittleEndian.PutUint32(hdr[30:], uint32(len(d.Bitmap)))
	binary.LittleEndian.PutUint64(hdr[34:], uint64(len(d.Data)))
	hdr[42] = d.DataCodec
	binary.LittleEndian.PutUint64(hdr[43:], d.rawLen())
	buf = append(buf, hdr[:]...)
	for _, n := range d.FirstOcur {
		buf = binary.LittleEndian.AppendUint32(buf, n)
	}
	for _, s := range d.ShiftDupl {
		buf = binary.LittleEndian.AppendUint32(buf, s.Node)
		buf = binary.LittleEndian.AppendUint32(buf, s.SrcNode)
		buf = binary.LittleEndian.AppendUint32(buf, s.SrcCkpt)
	}
	return buf, nil
}

// encodePrefix writes the serialization of d up to (excluding) the
// data section. The header and region metadata are staged in one
// pooled buffer and written together; the byte stream is unchanged.
//
//ckptlint:noalloc
func (d *Diff) encodePrefix(w io.Writer) error {
	bp, _ := encodeBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	// Pre-size for the whole prefix so a pool miss costs one
	// allocation, not a chain of append growths.
	if need := headerSize + 4*len(d.FirstOcur) + 12*len(d.ShiftDupl); cap(*bp) < need {
		*bp = make([]byte, 0, need)
	}
	buf, perr := d.AppendPrefix((*bp)[:0])
	if perr != nil {
		encodeBufPool.Put(bp)
		return perr
	}
	_, err := w.Write(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("checkpoint: write header/metadata: %w", err)
	}
	if len(d.Bitmap) > 0 {
		if _, err := w.Write(d.Bitmap); err != nil {
			return fmt.Errorf("checkpoint: write bitmap: %w", err)
		}
	}
	return nil
}

// Decode reads a Diff previously written by Encode.
func Decode(r io.Reader) (*Diff, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != diffMagic {
		return nil, errors.New("checkpoint: bad magic")
	}
	if hdr[4] != formatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", hdr[4])
	}
	if Method(hdr[5]) > MethodTree {
		return nil, fmt.Errorf("checkpoint: unknown method %d", hdr[5])
	}
	d := &Diff{
		Method:    Method(hdr[5]),
		CkptID:    binary.LittleEndian.Uint32(hdr[6:]),
		DataLen:   binary.LittleEndian.Uint64(hdr[10:]),
		ChunkSize: binary.LittleEndian.Uint32(hdr[18:]),
	}
	nFirst := binary.LittleEndian.Uint32(hdr[22:])
	nShift := binary.LittleEndian.Uint32(hdr[26:])
	nBitmap := binary.LittleEndian.Uint32(hdr[30:])
	nData := binary.LittleEndian.Uint64(hdr[34:])
	d.DataCodec = hdr[42]
	d.RawDataLen = binary.LittleEndian.Uint64(hdr[43:])

	// Validate declared sizes against the geometry before allocating
	// anything, so corrupt or hostile headers cannot demand huge
	// buffers (found by the decode-robustness fuzz test).
	const maxDataLen = 1 << 42
	if d.DataLen > maxDataLen {
		return nil, fmt.Errorf("checkpoint: implausible data length %d", d.DataLen)
	}
	if d.ChunkSize == 0 && (nFirst > 0 || nShift > 0 || nBitmap > 0) {
		return nil, errors.New("checkpoint: zero chunk size with chunk metadata")
	}
	var numNodes uint64 = 1
	if d.ChunkSize > 0 {
		numNodes = 2*uint64(NumChunksU64(d.DataLen, uint64(d.ChunkSize))) - 1
	}
	if uint64(nFirst) > numNodes || uint64(nShift) > numNodes {
		return nil, fmt.Errorf("checkpoint: %d+%d regions exceed %d tree nodes", nFirst, nShift, numNodes)
	}
	if d.ChunkSize > 0 {
		maxBitmap := (NumChunksU64(d.DataLen, uint64(d.ChunkSize)) + 7) / 8
		if uint64(nBitmap) > maxBitmap {
			return nil, fmt.Errorf("checkpoint: bitmap %d bytes exceeds %d chunks", nBitmap, maxBitmap*8)
		}
	}
	if nData > d.DataLen+headerSize {
		return nil, fmt.Errorf("checkpoint: data section %d exceeds buffer length %d", nData, d.DataLen)
	}
	if d.DataCodec != 0 && d.RawDataLen > d.DataLen {
		return nil, fmt.Errorf("checkpoint: raw data length %d exceeds buffer length %d", d.RawDataLen, d.DataLen)
	}

	meta, err := readExactly(r, 4*uint64(nFirst)+12*uint64(nShift))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read metadata: %w", err)
	}
	d.FirstOcur = make([]uint32, nFirst)
	for i := range d.FirstOcur {
		d.FirstOcur[i] = binary.LittleEndian.Uint32(meta[4*i:])
	}
	base := 4 * int(nFirst)
	d.ShiftDupl = make([]ShiftRegion, nShift)
	for i := range d.ShiftDupl {
		off := base + 12*i
		d.ShiftDupl[i] = ShiftRegion{
			Node:    binary.LittleEndian.Uint32(meta[off:]),
			SrcNode: binary.LittleEndian.Uint32(meta[off+4:]),
			SrcCkpt: binary.LittleEndian.Uint32(meta[off+8:]),
		}
	}
	if nBitmap > 0 {
		d.Bitmap, err = readExactly(r, uint64(nBitmap))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: read bitmap: %w", err)
		}
	}
	d.Data, err = readExactly(r, nData)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read data: %w", err)
	}
	return d, nil
}

// readExactly reads exactly n bytes without trusting n for the initial
// allocation. A reader that reports at least n bytes remaining (Len, as
// *bytes.Reader does) gets one exact allocation; for any other reader
// the buffer grows only as bytes actually arrive, so a lying header
// fails with ErrUnexpectedEOF instead of a giant make().
func readExactly(r io.Reader, n uint64) ([]byte, error) {
	if lr, ok := r.(interface{ Len() int }); ok && uint64(max(lr.Len(), 0)) >= n {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return buf, nil
	}
	var buf bytes.Buffer
	copied, err := io.Copy(&buf, io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(copied) != n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// NumChunksU64 is NumChunks for unvalidated 64-bit geometry.
func NumChunksU64(dataLen, chunkSize uint64) uint64 {
	if dataLen == 0 {
		return 1
	}
	return (dataLen + chunkSize - 1) / chunkSize
}

// BitmapSet marks chunk i as changed in bm.
func BitmapSet(bm []byte, i int) { bm[i/8] |= 1 << (i % 8) }

// BitmapGet reports whether chunk i is marked changed in bm.
func BitmapGet(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// BitmapLen returns the byte length of a bitmap for n chunks.
func BitmapLen(n int) int { return (n + 7) / 8 }

// rawLen returns the uncompressed data-section length.
func (d *Diff) rawLen() uint64 {
	if d.DataCodec != 0 {
		return d.RawDataLen
	}
	return uint64(len(d.Data))
}
