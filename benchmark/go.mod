module graphtinker/benchmark

go 1.22

require graphtinker v0.0.0

replace graphtinker => ../
