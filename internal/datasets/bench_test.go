package datasets

import (
	"strconv"
	"testing"

	"graphtinker/internal/rmat"
)

// BenchmarkTable1Generate times rmat.Generate on each Table-1 stream at
// divisors 8 and 1, in ns per generated edge. Select one with -bench, for
// example 'Table1Generate/.*/8$'; at divisor 1 the streams take 0.2 to
// 4.4 GB.
func BenchmarkTable1Generate(b *testing.B) {
	for _, d := range Table1() {
		for _, div := range []int{8, 1} {
			p, err := d.ScaledParams(div)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(d.Name+"/"+strconv.Itoa(div), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := rmat.Generate(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*p.NumEdges), "ns/edge")
			})
		}
	}
}
