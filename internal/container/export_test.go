package container

// The golden request-head test is in package container_test, so that
// it can wrap a client with faultinject, which imports this package.
var (
	CheckHead     = checkHead
	ReadHead      = readHead
	ContentLength = contentLength
)

type PassThrough = passThrough
