package sweepd

import (
	"os"
	sys "os"
)

func spill(dir, name string, line []byte) error {
	f, err := os.CreateTemp(dir, "cell-*") // want
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), name); err != nil { // want
		return err
	}
	return sys.Rename(name, name+".done") // want: under an aliased import
}
