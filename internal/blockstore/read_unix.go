//go:build unix

package blockstore

import (
	"os"
	"syscall"
)

// readBlockFile reads the file at path from offset 0 into buf until
// buf is full or the file ends, and returns the byte count. It uses
// raw open/pread/close rather than an os.File: a restore reads
// hundreds of small block files once each, and an os.File would add a
// poller registration attempt, an fstat and a finalizer to every one.
func readBlockFile(path string, buf []byte) (int, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return 0, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	n := 0
	for n < len(buf) {
		m, err := syscall.Pread(fd, buf[n:], int64(n))
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return n, &os.PathError{Op: "pread", Path: path, Err: err}
		}
		if m == 0 {
			break
		}
		n += m
	}
	return n, nil
}
