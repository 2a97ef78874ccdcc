module github.com/qoslab/amf/bench

go 1.22

require github.com/qoslab/amf v0.0.0

replace github.com/qoslab/amf => ../
