module tcq/benchmark

go 1.24

require tcq v0.0.0

replace tcq => ../
