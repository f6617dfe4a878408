package lp

// PropFairCertificate is PropFairCaps with the link prices that prove its
// answer optimal: the price of every link a live path crosses, in the order
// of the returned link IDs.
var PropFairCertificate = propFair
