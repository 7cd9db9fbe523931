module trinity/benchmark

go 1.22

require trinity v0.0.0

replace trinity => ../
