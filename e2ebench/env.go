package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/gpuckpt/gpuckpt"
)

// flushPolicy is the store's durability behaviour. The program has no
// knob for it: every group commit, block intern and manifest change is
// fsynced before the ack.
const flushPolicy = "fsync on every commit (no knob)"

// envStamp is printed with every result so that figures from different
// machines are never compared blind.
type envStamp struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	FSType     string         `json:"store_fs"`
	Flush      string         `json:"flush_policy"`
	Seed       int64          `json:"seed"`
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Sizes      map[string]int `json:"sizes"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
}

func newEnvStamp(o options, why string, sizes map[string]int) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Flush:      flushPolicy,
		Seed:       o.seed,
		Workload:   o.workload,
		Why:        why,
		Sizes:      sizes,
		Seconds:    o.seconds.Seconds(),
		Trace:      o.trace,
	}
}

// fsTypeName names the filesystem holding path by its statfs magic.
func fsTypeName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// procIO holds two fields of /proc/self/io: wchar, the bytes passed to
// write-family system calls (files and sockets alike), and
// write_bytes, the bytes the process caused to be sent to a block
// device (page-granular; 0 on tmpfs).
type procIO struct{ wchar, writeBytes int64 }

func readProcIO() procIO {
	b, _ := os.ReadFile("/proc/self/io")
	return procIO{wchar: procField(b, "wchar:"), writeBytes: procField(b, "write_bytes:")}
}

// socketBytes is the protocol bytes both ends wrote to their sockets,
// as the server counts them.
func socketBytes(st gpuckpt.ServerStats) int64 {
	return int64(st.BytesIn + st.BytesOut)
}

// peakRSSMiB reads the resident-set high-water mark.
func peakRSSMiB() float64 {
	b, _ := os.ReadFile("/proc/self/status")
	return float64(procField(b, "VmHWM:")) / 1024
}

// procField parses the first number after key in a /proc file's
// contents (0 when absent).
func procField(b []byte, key string) int64 {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, key))
		if len(f) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(f[0], 10, 64)
		return v
	}
	return 0
}

// walkStore counts the regular files under root and their bytes.
func walkStore(root string) (files, size int64, err error) {
	err = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}
