module parj/benchmark

go 1.22

require parj v0.0.0

replace parj => ../
