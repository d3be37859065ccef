module lodify/bench

go 1.22

require lodify v0.0.0

replace lodify => ../
