package fabric

import (
	"bytes"
	"testing"
)

// FuzzDecodeShard feeds arbitrary bytes to the worker's wire decoder. It
// must never panic; a shard it accepts must encode; and decoding the
// encoding must give back a shard whose encoding is byte-identical, so a
// shard relayed between builds cannot drift. The seed corpus lives in
// testdata/fuzz/FuzzDecodeShard; sampleShard's encoding is added here.
func FuzzDecodeShard(f *testing.F) {
	seed, err := sampleShard().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		sh, err := DecodeShard(data)
		if err != nil {
			return
		}
		enc, err := sh.Encode()
		if err != nil {
			t.Fatalf("decoded shard does not encode: %v\ninput: %q", err, data)
		}
		again, err := DecodeShard(enc)
		if err != nil {
			t.Fatalf("encoding does not decode: %v\nencoding: %s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("re-decoded shard does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("decode∘encode not idempotent:\n%s\n%s", enc, enc2)
		}
	})
}
