package obs

import "runtime"

// Build identification, stamped by the Makefile:
//
//	-ldflags "-X github.com/qoslab/amf/internal/obs.buildVersion=... \
//	          -X github.com/qoslab/amf/internal/obs.buildCommit=..."
//
// Unstamped builds (plain `go build`, `go test`) report "dev"/"unknown".
var (
	buildVersion = "dev"
	buildCommit  = "unknown"
)

// BuildVersion returns the stamped version string.
func BuildVersion() string { return buildVersion }

// BuildCommit returns the stamped VCS commit.
func BuildCommit() string { return buildCommit }

// RegisterBuildInfo adds the amf_build_info const gauge (value 1; the
// payload is the labels) to a registry. Every binary's registry gets
// one.
func RegisterBuildInfo(r *Registry) {
	r.ConstGauge("amf_build_info",
		"Build identification; constant 1, labeled with version, commit, and Go toolchain.",
		1, "version", buildVersion, "commit", buildCommit, "go_version", runtime.Version())
}
