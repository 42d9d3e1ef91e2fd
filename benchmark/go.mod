// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it. Its module
// path sits under "repro/", which is what lets it import repro/internal/...
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
