module lowlat/bench

go 1.22

require lowlat v0.0.0

replace lowlat => ../
