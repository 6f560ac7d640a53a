package ncgio

import (
	"bytes"
	"iter"
)

// Lines is the framing rule of the package comment: it yields each
// '\n'-terminated non-blank line of data, trimmed of surrounding white
// space and aliasing data, with the offset just past its newline, and
// never a newline-less tail. Two consecutive offsets differ by a line's
// length plus one exactly when nothing but that line and its newline lies
// between them.
func Lines(data []byte) iter.Seq2[[]byte, int] {
	return func(yield func(line []byte, end int) bool) {
		for off := 0; ; {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				return
			}
			line := bytes.TrimSpace(data[off : off+nl])
			off += nl + 1
			if len(line) > 0 && !yield(line, off) {
				return
			}
		}
	}
}
