package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
)

// encodeSeed returns the encoding of d for use as a fuzz seed.
func encodeSeed(f *testing.F, d *Diff) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDiffDecode feeds arbitrary bytes to the diff decoder and, when a
// diff decodes, checks that encode(decode(x)) survives a second decode
// with identical content. RawDataLen is excluded from the comparison:
// with no codec set the encoder canonicalizes it to len(Data).
func FuzzDiffDecode(f *testing.F) {
	for _, d := range sampleDiffs() {
		f.Add(encodeSeed(f, d))
	}
	f.Add(encodeSeed(f, unorderedRegionDiffs()["overlapping"]))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatalf("re-encode of decoded diff failed: %v", err)
		}
		d2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode of re-encoded diff failed: %v", err)
		}
		d.RawDataLen, d2.RawDataLen = 0, 0
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip diverged:\n %+v\n %+v", d, d2)
		}
	})
}

// FuzzManifestDecode feeds arbitrary bytes to the lineage-manifest
// decoder. A manifest that decodes must satisfy its own invariants
// (validate) and survive an encode/decode round trip unchanged — the
// manifest is the commit record of the compaction transaction, so a
// corrupted file must never decode into an inconsistent baseline.
func FuzzManifestDecode(f *testing.F) {
	seeds := []Manifest{
		{},
		{Base: 0, Generation: 1},
		{Base: 8, Generation: 3, Pins: []uint32{8, 12, 60}},
		{Base: 1, Generation: 1 << 40, Pins: []uint32{1}},
	}
	for _, m := range seeds {
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Invalid-by-construction seeds steer the fuzzer at the validation
	// paths: wrong magic, truncated header, unsorted pins.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x4d, 0x4c, 0x43, 0x47, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if err := m.validate(); err != nil {
			t.Fatalf("decoded manifest violates invariants: %v (%+v)", err, m)
		}
		b, err := m.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		m2, err := DecodeManifest(b)
		if err != nil {
			t.Fatalf("decode of re-encoded manifest failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip diverged:\n %+v\n %+v", m, m2)
		}
	})
}

// FuzzDiffChecksum attacks the integrity footer with arbitrary file
// images and arbitrary single-byte corruptions of footered images. The
// invariant under fuzz: SplitFooter must never report verified=true
// unless the returned bytes hash to the footer CRC; AppendFooter must
// round-trip; and any corruption of a footered image is either
// detected (ErrChecksumMismatch) or demotes the file to the legacy
// unverified path — silent verified corruption is the one forbidden
// outcome.
func FuzzDiffChecksum(f *testing.F) {
	for _, d := range sampleDiffs() {
		f.Add(encodeSeed(f, d), uint16(0), byte(0))
	}
	f.Add([]byte{}, uint16(3), byte(0xFF))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint16(70), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		// Arbitrary raw image: whatever SplitFooter verifies must
		// actually hash to its recorded CRC.
		if enc, verified, err := SplitFooter(data); err == nil && verified {
			if DiffChecksum(enc) != DiffChecksum(data[:len(data)-FooterSize]) ||
				!bytes.Equal(enc, data[:len(data)-FooterSize]) {
				t.Fatalf("SplitFooter verified bytes that are not the footered prefix")
			}
		}

		// A freshly footered image must verify and round-trip.
		footered := AppendFooter(data)
		enc, verified, err := SplitFooter(footered)
		if err != nil || !verified {
			t.Fatalf("AppendFooter image did not verify: verified=%v err=%v", verified, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("footer round trip changed the bytes")
		}

		// Corrupt one byte anywhere in the footered image: detection or
		// demotion to legacy-unverified, never verified with altered
		// content.
		if mask == 0 {
			mask = 1
		}
		p := int(pos) % len(footered)
		mut := append([]byte(nil), footered...)
		mut[p] ^= mask
		enc, verified, err = SplitFooter(mut)
		if err == nil && verified && !bytes.Equal(enc, data) {
			t.Fatalf("flip of byte %d (mask %02x) verified with altered content", p, mask)
		}
	})
}

// fuzzRestoreMaxData bounds the buffer the restore harness will
// reconstruct; the format itself admits terabyte buffers, but the fuzz
// engine should not allocate them.
const fuzzRestoreMaxData = 1 << 22

// FuzzRestore decodes a concatenated sequence of diffs, appends each to
// a lineage and restores the latest checkpoint. Append validates
// geometry, bitmaps and shift references, so any input that survives it
// must replay without a panic or out-of-range access.
func FuzzRestore(f *testing.F) {
	var lineage bytes.Buffer
	full := &Diff{Method: MethodFull, CkptID: 0, DataLen: 40, ChunkSize: 8,
		Data: bytes.Repeat([]byte{1}, 40)}
	if err := full.Encode(&lineage); err != nil {
		f.Fatal(err)
	}
	tree := &Diff{Method: MethodTree, CkptID: 1, DataLen: 40, ChunkSize: 8,
		FirstOcur: []uint32{1}, ShiftDupl: []ShiftRegion{{Node: 6, SrcNode: 1, SrcCkpt: 1}},
		Data: bytes.Repeat([]byte{4}, 24)}
	if err := tree.Encode(&lineage); err != nil {
		f.Fatal(err)
	}
	f.Add(lineage.Bytes())
	for _, d := range sampleDiffs() {
		f.Add(encodeSeed(f, d))
	}
	f.Add(encodeSeed(f, unorderedRegionDiffs()["overlapping"]))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rec := NewRecord()
		for rec.Len() < 8 {
			d, err := Decode(r)
			if err != nil {
				break
			}
			if d.DataLen > fuzzRestoreMaxData {
				return
			}
			// Cap the chunk count too: the lineage index builds a
			// merkle geometry with ~32 bytes per chunk.
			if d.ChunkSize > 0 && NumChunksU64(d.DataLen, uint64(d.ChunkSize)) > 1<<16 {
				return
			}
			if err := rec.Append(d); err != nil {
				break
			}
		}
		if rec.Len() == 0 {
			return
		}
		state, err := rec.RestoreLatest()
		if err != nil {
			return
		}
		if len(state) != rec.DataLen() {
			t.Fatalf("restored %d bytes, record says %d", len(state), rec.DataLen())
		}
	})
}
