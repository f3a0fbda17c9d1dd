module llmtailor/bench

go 1.24

require llmtailor v0.0.0

replace llmtailor => ../
