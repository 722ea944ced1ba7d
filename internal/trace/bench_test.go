package trace

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkDecode is the decode layer alone: the streaming reader
// (NewBinaryReader, then Next until io.EOF) over an in-memory corpus in
// each binary version, with no consumer. bytes/op is the encoded corpus,
// so MB/s is decode throughput; run it with -benchmem.
func BenchmarkDecode(b *testing.B) {
	d := genDataset(50_000)
	var v2, v3, v4 bytes.Buffer
	if err := WriteBinary(&v2, d); err != nil {
		b.Fatal(err)
	}
	if err := WriteBinaryBlocks(&v3, d, 0); err != nil {
		b.Fatal(err)
	}
	if err := WriteBinaryBlocksV4(&v4, timestampDataset(d), 0); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"v2", v2.Bytes()}, {"v3", v3.Bytes()}, {"v4", v4.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				r, err := NewBinaryReader(bytes.NewReader(c.data))
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					_, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n++
				}
				if n != len(d.Traces) {
					b.Fatalf("decoded %d traces, want %d", n, len(d.Traces))
				}
			}
		})
	}
}
