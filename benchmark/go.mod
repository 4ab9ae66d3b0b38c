module dodo/benchmark

go 1.22

require dodo v0.0.0

replace dodo => ../
