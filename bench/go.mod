module msql/bench

go 1.22

require msql v0.0.0

replace msql => ../
