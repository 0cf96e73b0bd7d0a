package experiments

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Machine describes the host a benchmark document was measured on, so a
// committed BENCH_*.json names the hardware behind its numbers.
type Machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// HostMachine describes the running host. CPU is the first "model name" in
// /proc/cpuinfo, or "unknown" where that file is absent.
func HostMachine() Machine {
	m := Machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPU = strings.TrimSpace(v)
			break
		}
	}
	return m
}
