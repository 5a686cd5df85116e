package fleet

// StatusOf exposes the HTTP status mapping to the external tests.
var StatusOf = statusOf
