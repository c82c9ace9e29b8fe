//go:build !unix

package blockstore

import (
	"errors"
	"io"
	"os"
)

// readBlockFile reads the file at path from offset 0 into buf until
// buf is full or the file ends, and returns the byte count.
func readBlockFile(path string, buf []byte) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := f.ReadAt(buf, 0)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}
