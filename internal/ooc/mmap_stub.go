//go:build nommap || !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package ooc

import (
	"errors"
	"os"
)

// errMmapUnsupported makes OpenMmap return the chunked reader: this build
// has no memory-mapping support (the nommap tag, or a platform the mmap
// wrapper does not cover).
var errMmapUnsupported = errors.New("ooc: mmap unsupported in this build")

func mmapFile(f *os.File, size int64) ([]byte, func() error, error) {
	return nil, nil, errMmapUnsupported
}
