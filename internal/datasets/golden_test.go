package datasets

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"graphtinker/internal/rmat"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcEdges folds edges into sum as 20 little-endian bytes each: src,
// dst, weight bits.
func crcEdges(sum uint32, es []rmat.Edge) uint32 {
	var buf [20]byte
	for _, e := range es {
		binary.LittleEndian.PutUint64(buf[0:], e.Src)
		binary.LittleEndian.PutUint64(buf[8:], e.Dst)
		binary.LittleEndian.PutUint32(buf[16:], math.Float32bits(e.Weight))
		sum = crc32.Update(sum, castagnoli, buf[:])
	}
	return sum
}

// goldenBatch is an odd batch size, so a symmetric dataset's edge pairs
// straddle batch boundaries.
const goldenBatch = 10007

// TestGenerateGolden pins every Table-1 input at divisor 128: the CRC-32C
// of rmat.Generate's stream, and of Materialize's batches (each batch's
// length as a little-endian uint64, then its edges). These streams are
// the figures' and the benchmark's inputs; a change that moves one of
// these values changes what every experiment measures.
func TestGenerateGolden(t *testing.T) {
	want := map[string][2]uint32{
		"RMAT_1M_10M":      {0xab5ad6bf, 0x525536de},
		"RMAT_500K_8M":     {0x429aef6e, 0x6d53d831},
		"RMAT_1M_16M":      {0xe2a18514, 0x44aff98d},
		"RMAT_2M_32M":      {0x8f3b407b, 0x5cd73599},
		"Hollywood-2009":   {0xc2e21447, 0xf974790c},
		"Kron_g500-logn21": {0xcebdffcc, 0x2a00430f},
	}
	for _, d := range Table1() {
		p, err := d.ScaledParams(128)
		if err != nil {
			t.Fatal(err)
		}
		es, err := rmat.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		stream := crcEdges(0, es)
		batches, err := d.Materialize(128, goldenBatch)
		if err != nil {
			t.Fatal(err)
		}
		var mat uint32
		var lenBuf [8]byte
		for _, b := range batches {
			binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
			mat = crc32.Update(mat, castagnoli, lenBuf[:])
			mat = crcEdges(mat, b)
		}
		if got := [2]uint32{stream, mat}; got != want[d.Name] {
			t.Errorf("%s: CRC-32C (stream, batches) = {%#08x, %#08x}, want {%#08x, %#08x}",
				d.Name, got[0], got[1], want[d.Name][0], want[d.Name][1])
		}
	}
}
