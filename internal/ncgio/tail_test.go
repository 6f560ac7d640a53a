package ncgio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLastCompleteOffset(t *testing.T) {
	cases := []struct {
		data string
		want int64
	}{
		{"", 0},
		{"abc", 0},
		{"abc\n", 4},
		{"abc\ndef", 4},
		{"a\nb\nc", 4},
		{"\n", 1},
		{"abc\n\n\ntail", 6},
	}
	for _, c := range cases {
		got, err := LastCompleteOffset(strings.NewReader(c.data), int64(len(c.data)))
		if err != nil {
			t.Fatalf("%q: %v", c.data, err)
		}
		if got != c.want {
			t.Fatalf("LastCompleteOffset(%q) = %d, want %d", c.data, got, c.want)
		}
	}
}

// TestLastCompleteOffsetMultiChunk shrinks the reverse-scan block so the
// newline sits several chunks before the end.
func TestLastCompleteOffsetMultiChunk(t *testing.T) {
	saved := reverseScanChunk
	reverseScanChunk = 4
	defer func() { reverseScanChunk = saved }()

	data := "line one\n" + strings.Repeat("x", 23)
	got, err := LastCompleteOffset(strings.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("offset = %d, want 9", got)
	}
	noNL := strings.Repeat("y", 17)
	got, err = LastCompleteOffset(strings.NewReader(noNL), int64(len(noNL)))
	if err != nil || got != 0 {
		t.Fatalf("no-newline scan = %d, %v (want 0, nil)", got, err)
	}
}

func TestTailerFramesWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	tail := NewTailer(rf)

	read := func() string {
		t.Helper()
		var buf bytes.Buffer
		for {
			sec, n, err := tail.Next()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return buf.String()
			}
			if _, err := io.Copy(&buf, sec); err != nil {
				t.Fatal(err)
			}
		}
	}

	if got := read(); got != "" {
		t.Fatalf("empty file yielded %q", got)
	}
	f.WriteString("first li") //nolint:errcheck
	if got := read(); got != "" {
		t.Fatalf("torn tail served: %q", got)
	}
	f.WriteString("ne\nsecond line\n") //nolint:errcheck
	if got := read(); got != "first line\nsecond line\n" {
		t.Fatalf("got %q", got)
	}
	f.WriteString("third\npartial") //nolint:errcheck
	if got := read(); got != "third\n" {
		t.Fatalf("got %q", got)
	}
	f.WriteString("\n") //nolint:errcheck
	if got := read(); got != "partial\n" {
		t.Fatalf("got %q", got)
	}
}
