package sweepd

import (
	"container/list"
	"os"
	sys "os"

	"repro/internal/ncgio"
)

func load(path string, order *list.List) ([]byte, error) {
	if err := ncgio.RepairTail(path); err != nil { // want
		return nil, err
	}
	order.Remove(order.Front()) // a list's Remove is no file
	f, err := os.Open(path)     // reading is allowed
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line := make([]byte, 8)
	if _, err := f.ReadAt(line, 0); err != nil {
		return nil, err
	}
	if _, err := f.WriteAt(line, 8); err != nil { // want
		return nil, err
	}
	if err := sys.MkdirAll(path+".d", 0o755); err != nil { // want: under an aliased import
		return nil, err
	}
	return line, os.RemoveAll(path + ".d") // want
}
