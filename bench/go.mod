module nwcq/bench

go 1.22

require nwcq v0.0.0

replace nwcq => ../
