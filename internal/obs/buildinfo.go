package obs

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the running binary: what /healthz and the
// metrics exposition report so an operator can join a live daemon (or
// a -metrics file) back to a commit.
type BuildInfo struct {
	// Path is the main module path, Version its module version
	// ("(devel)" for source builds).
	Path    string `json:"path"`
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision/Modified come from the VCS stamp when present: the
	// commit hash and whether the working tree was dirty.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

// ReadBuildInfo collects the binary's identity from the runtime's
// embedded build information. Fields missing from the build (e.g. no
// VCS stamp under plain `go test`) are left zero.
func ReadBuildInfo() BuildInfo {
	info := BuildInfo{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Path = bi.Main.Path
	info.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// PromInfo renders the build identity as a Prometheus info metric
// (name_build_info 1 with identity labels), with any extra labels
// (snapshot fingerprint, algorithm) appended.
func (b BuildInfo) PromInfo(name string, extra ...[2]string) PromInfo {
	labels := [][2]string{
		{"version", b.Version},
		{"go_version", b.GoVersion},
	}
	if b.Revision != "" {
		rev := b.Revision
		if b.Modified {
			rev += "+dirty"
		}
		labels = append(labels, [2]string{"revision", rev})
	}
	labels = append(labels, extra...)
	return PromInfo{Name: name + "_build_info", Labels: labels}
}
