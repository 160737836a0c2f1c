package main

import (
	"os"
	"runtime"
	"strings"
)

// envInfo records what about the box decides whether a run can be
// trusted. proto.Call dials once per RPC, so meta_small opens on the
// order of ten thousand loopback connections a second; whether closed
// sockets release their port at once (tcp_tw_reuse) and how many ports
// there are explain a run that fails with dial errors.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	TCPTWReuse string `json:"tcp_tw_reuse"`
	PortRange  string `json:"port_range"`
}

func readEnv() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		TCPTWReuse: sysctl("/proc/sys/net/ipv4/tcp_tw_reuse"),
		PortRange:  sysctl("/proc/sys/net/ipv4/ip_local_port_range"),
	}
}

// sysctl reads one kernel setting, "unknown" where it cannot.
func sysctl(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(data)), " ")
}
