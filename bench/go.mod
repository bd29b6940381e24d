module github.com/lsds/browserflow/bench

go 1.22

require github.com/lsds/browserflow v0.0.0

replace github.com/lsds/browserflow => ../
