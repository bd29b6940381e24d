package index

import (
	"bytes"
	"errors"
	"testing"

	"github.com/lsds/browserflow/internal/wire"
)

// FuzzDecodeDigest feeds arbitrary bytes to the digest frame decoder: it
// must either return a *wire.Error or a digest that re-encodes to exactly
// the input bytes — never panic, never accept a mangled frame.
func FuzzDecodeDigest(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(digestMagic))
	valid := Digest{Clock: 3, Postings: 5, Pars: 7, Combined: 9}.AppendEncode(nil)
	f.Add(valid)
	truncated := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDigest(data)
		if err != nil {
			var we *wire.Error
			if !errors.As(err, &we) {
				t.Fatalf("error is not a *wire.Error: %v", err)
			}
			return
		}
		if got := d.AppendEncode(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted frame does not re-encode to itself:\n in %x\nout %x", data, got)
		}
	})
}
