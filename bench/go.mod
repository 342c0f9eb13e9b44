module detmt/bench

go 1.22

require detmt v0.0.0

replace detmt => ../
