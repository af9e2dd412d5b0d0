module mutablecp/bench

go 1.22

require mutablecp v0.0.0

replace mutablecp => ../
