package server

import "osars/internal/jsonscan"

// maxDepth is the scanner's nesting limit, which the decode seeds probe.
const maxDepth = jsonscan.MaxDepth
