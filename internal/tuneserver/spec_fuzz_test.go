package tuneserver

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to parseSpec, the decoder of every
// client-supplied study spec: it must never panic, every refusal must be
// an ErrSpec (the HTTP layer's 400), and a spec it accepts must already
// be normalized — normalizing it again changes nothing. The seed corpus
// (testdata/fuzz/FuzzParseSpec) holds a valid spec, a truncation, an
// unknown field, trailing data and a flipped byte.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := parseSpec(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("refusal is not an ErrSpec: %v", err)
			}
			return
		}
		again := *sp
		if err := again.normalize(); err != nil {
			t.Fatalf("accepted spec fails a second normalize: %v", err)
		}
		if again != *sp {
			t.Fatalf("normalize is not idempotent:\nfirst  %+v\nsecond %+v", *sp, again)
		}
	})
}
