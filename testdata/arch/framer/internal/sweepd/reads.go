package sweepd

import (
	"bufio"
	"bytes"
	"io"
)

func lines(data []byte, br *bufio.Reader, w io.Writer) {
	_ = bytes.IndexByte(data, '\n') // want
	_, _ = br.ReadBytes('\n')       // want
	var buf bytes.Buffer
	_ = bytes.IndexByte(buf.Bytes(), '\n') // want: a call inside the arguments
	_, _ = br.ReadString('\x0a')           // want: another reader, another spelling
	_, _ = io.WriteString(w, "\n")
	_ = bytes.IndexByte(data, '"')
}
