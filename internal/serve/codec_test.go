package serve

import (
	"errors"
	"testing"

	"compso/internal/encoding"
)

// TestCodecNamesResolveThroughTheRegistry holds a session's codec, named at
// creation or per request, to encoding.ByName: any casing resolves, and an
// unknown name is an error wrapping encoding.ErrUnknownCodec.
func TestCodecNamesResolveThroughTheRegistry(t *testing.T) {
	cfg := SessionConfig{Codec: "zstd"}
	if err := cfg.normalize(); err != nil || cfg.Codec != "Zstd" {
		t.Fatalf("codec \"zstd\" normalizes to %q, %v; want \"Zstd\"", cfg.Codec, err)
	}
	bad := SessionConfig{Codec: "no-such-codec"}
	if err := bad.normalize(); !errors.Is(err, encoding.ErrUnknownCodec) {
		t.Fatalf("unknown codec at creation: err = %v, want ErrUnknownCodec", err)
	}

	sess, err := newSession("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.compress(make([]float32, 64), "lz4"); err != nil {
		t.Fatalf("codec override \"lz4\": %v", err)
	}
	_, err = sess.compress(make([]float32, 64), "no-such-codec")
	if !errors.Is(err, encoding.ErrUnknownCodec) || !errors.Is(err, errBadRequest) {
		t.Fatalf("unknown codec override: err = %v, want ErrUnknownCodec and errBadRequest", err)
	}
}
