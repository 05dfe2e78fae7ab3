module github.com/spyker-fl/spyker/benchmark

go 1.24

require github.com/spyker-fl/spyker v0.0.0

replace github.com/spyker-fl/spyker => ../
