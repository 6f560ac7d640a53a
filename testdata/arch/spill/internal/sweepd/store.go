package sweepd

import "os"

// The job store commits a spec by rename; only the cache appends.
func commit(tmp, name string) error { return os.Rename(tmp, name) }
