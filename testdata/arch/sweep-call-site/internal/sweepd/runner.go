package sweepd

import (
	"context"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// With a second call site, both are reported.
func sweepLines(ctx context.Context, line []byte) error {
	if _, err := ncgio.UnmarshalCellResult(line); err != nil { // want: the runner decodes a result line
		return err
	}
	_, err := dynamics.SweepContext(ctx, nil) // want
	return err
}
