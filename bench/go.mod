module evedge/bench

go 1.24

require evedge v0.0.0

replace evedge => ../
