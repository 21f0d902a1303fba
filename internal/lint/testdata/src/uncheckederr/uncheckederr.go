// Package uncheckederr is a lint fixture seeding ignored error returns
// from mpi.Comm collectives and encode/io paths. Lines marked "want"
// must be reported; everything else must stay silent.
package uncheckederr

import (
	"encoding/gob"
	"os"

	"repro/internal/mpi"
)

func leaky(c *mpi.Comm, enc *gob.Encoder, buf []float32) {
	c.Bcast(0, buf)             // want: ignored error from mpi collective
	c.Reduce(0, mpi.OpSum, buf) // want: ignored error from mpi collective
	enc.Encode(buf)             // want: ignored error from gob encode
	os.Remove("scratch")        // want: ignored error from os
}

func careful(c *mpi.Comm, buf []float32) error {
	if err := c.Bcast(0, buf); err != nil {
		return err
	}
	// Explicit discard is an audited decision, not an oversight.
	_ = c.Barrier()
	f, err := os.Open("scratch")
	if err != nil {
		return err
	}
	// Deferred close on a read-only file: conventional, not flagged.
	defer f.Close()
	return nil
}
